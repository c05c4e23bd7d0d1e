"""twistlab: one-axis-twisting spin metrology toolkit.

Exact Dicke-basis simulation of collective spins, quantum Fisher information
in closed form and from state evolution, twist-untwist interferometry with
method-of-moments error analysis, finite-range Ising rings with analytic
variance formulas, exact direction maximizers, and a CLI for reproducible
sweeps.

Each name lives in its module only (`from twistlab import oat_metrology`,
`from twistlab.lattice_fr import fr_max_qfi`), so `import twistlab` imports
neither numpy nor any submodule.
"""
__version__ = "0.1.0"
