"""Command-line front end: single evaluations, sweeps, and verification suites.

Outputs are CSV (default) or JSON.  CSV carries `#`-prefixed header comments
(the timestamp line is the only non-reproducible byte); JSON mirrors the rows
under "records" with a "meta" object, in the layout of json.dumps(indent=2).
Records are written as they are produced, after every value is computed.

`qfi`'s rel_diff is |closed - numeric| / max(|numeric|, N): N, the QFI of the
unentangled probe, floors the scale, so a true zero reads as the rounding it
is and not as a full mismatch.  `fr-variance --brute`'s rel_err floors it the
same way at (N + 2)/4, the ring's unentangled variance.  `verify`'s closed-form
and appendix-c suites report the largest of these same errors.

Each command imports the modules it runs when it runs: phase-diagram, fr-qfi and
fr-variance without --brute run closed_form alone and never load numpy; husimi adds
numerics and spin_core, qfi and mom oat_metrology too, twist-untwist-scan optimizer too;
fr-variance --brute and verify's appendix-c suite add numerics and lattice_fr alone, and
fr-optimize optimizer too.  At exit the heap is frozen (gc.freeze), so the interpreter's
final collections skip what the imports built; _emit closes its own files.

Exit codes: 0 ok, 2 configuration error, 3 numerical or verification failure.
"""
from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import itertools
import json
import math
import os
import re
import sys

# before numpy loads OpenBLAS: no command calls BLAS, so start no pool of spinning workers
os.environ["OPENBLAS_NUM_THREADS"] = "1"
# finalization collects every tracked object several times, but skips frozen ones
atexit.register(gc.freeze)

from . import __version__
from . import closed_form as cf
from .closed_form import Direction, IndeterminateRatioError, X_AXIS, Y_AXIS, Z_AXIS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    """A run configuration violates a module precondition."""


_NAMED_AXES = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}

_VARIANT_ALIASES = {
    "rotation-only": "rotation_only",
    "twist-untwist": "twist_untwist",
    "realigned": "twist_untwist_realigned",
    "mach-zehnder": "mach_zehnder",
}


def finite(text: str) -> float:
    if math.isfinite(value := float(text)):
        return value
    raise ValueError(text)


def _parse_axis(text: str) -> Direction:
    """'x' / 'y' / 'z' or 'xi,theta' in radians."""
    if text.lower() in _NAMED_AXES:
        return _NAMED_AXES[text.lower()]
    try:
        xi, theta = (finite(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"axis must be x, y, z or finite 'xi,theta', got {text!r}") from exc
    return Direction.from_angles(xi, theta)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(args, rows) -> None:
    """Write the rows, an iterable of at least one, with the columns of the first and
    the run's config, each row as it comes.  Callers compute every value first, so a
    failure writes nothing.  Every command's rows are flat dicts of scalars, and the
    JSON layout relies on it: one C-encoder pass per record, whose item separator is
    the newline and indent that json.dumps(payload, indent=2) puts between its keys."""
    rows = iter(rows)
    first = next(rows)
    rows = itertools.chain([first], rows)
    skip = {"output", "format", "func"}
    config = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    meta = {"tool": "twistlab", "version": __version__, "config": config}
    try:
        out = open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ConfigError(f"cannot write --output {args.output}: {exc.strerror}") from exc
    try:
        with out as fh:
            if args.format == "json":
                head = json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  ")
                fh.write(f'{{\n  "meta": {head},\n  "records": [')
                encode = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": ")).encode
                sep = "\n"
                for row in rows:
                    fh.write(f"{sep}    {{\n      {encode(row)[1:-1]}\n    }}")
                    sep = ",\n"
                fh.write("\n  ]\n}\n")
            else:  # a JSON job loads neither module
                import csv
                from datetime import datetime, timezone

                fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
                fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
                # minimal quoting: a cell such as rot = "1.1,0.3" stays one field
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(first)
                writer.writerows([_fmt(row.get(c)) for c in first] for row in rows)
            fh.flush()
    except OSError as exc:  # a closed pipe or a full device
        if not args.output:  # stdout's flush at exit would fail again: send it nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write output: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _qfi_row(n: int, t: float, direction: Direction) -> dict:
    """qfi's row, both QFIs at the direction's angles; also the closed-form suite's case."""
    from . import oat_metrology as oat

    xi, theta = direction.xi, direction.theta
    closed = cf.qfi_closed_form(n, t, xi, theta)
    numeric = oat.qfi_numeric(n, t, Direction.from_angles(xi, theta))
    return {"N": n, "t": t, "xi": xi, "theta": theta, "qfi_closed": closed,
            "qfi_numeric": numeric, "rel_diff": abs(closed - numeric) / max(abs(numeric), n)}


def cmd_qfi(args) -> int:
    _emit(args, [_qfi_row(args.n, args.t, _parse_axis(args.direction))])
    return EXIT_OK


def _unless_indeterminate(value):
    """value(), or None at a 0/0 point."""
    try:
        return value()
    except IndeterminateRatioError:
        return None


def cmd_mom(args) -> int:
    from . import numerics, oat_metrology as oat

    variant = _VARIANT_ALIASES.get(args.variant, args.variant)
    if variant in ("rotation_only", "twist_untwist") and args.realign_phi != 0.0:
        raise ConfigError(f"--variant {args.variant} does not realign; drop --realign-phi")
    readout = _parse_axis(args.readout)
    axis, phi, untwist = oat.sensing(variant, _parse_axis(args.rot), args.phi, args.realign_phi,
                                     args.mz_axis)  # axis: --rot, or --mz-axis for mach-zehnder
    value = _unless_indeterminate(lambda: numerics.mom_reciprocal(
        *oat.protocol_moments(args.n, args.t, phi, axis, untwist), readout.as_array()))
    qfi = oat.qfi_numeric(args.n, args.t, axis)
    _emit(args, [{"N": args.n, "t": args.t, "phi": args.phi,
                  "n_x": axis.nx, "n_y": axis.ny, "n_z": axis.nz,
                  "m_x": readout.nx, "m_y": readout.ny, "m_z": readout.nz,
                  "reciprocal_error": value, "qfi": qfi,
                  "flag": "indeterminate" if value is None else "ok"}])
    return EXIT_OK


def cmd_phase_diagram(args) -> int:
    q_lo, q_hi = cf.default_q_grid(args.n, 2)  # the default grid's ends
    if args.q_points < 2:
        raise ConfigError("--q-points must be at least 2")
    grid = cf.linspace(q_lo if args.q_min is None else args.q_min,
                       q_hi if args.q_max is None else args.q_max, args.q_points)
    _emit(args, [{"N": rec.n_particles, "q": rec.q, "t": rec.t, "qfi_max": rec.qfi_max,
                  "xi_opt": rec.argmax_xi, "theta_opt": rec.argmax_theta, "regime": rec.regime}
                 for rec in cf.phase_diagram_scan(args.n, grid)])
    return EXIT_OK


def cmd_twist_untwist_scan(args) -> int:
    from . import numerics, oat_metrology as oat
    from .optimizer import maximize_slope_ratio

    if args.n_min < 4 or args.n_max < args.n_min or args.n_step < 1:
        raise ConfigError("need 4 <= n-min <= n-max and a positive n-step")
    rotation = _parse_axis(args.rot)
    rows = []
    for n in range(args.n_min, args.n_max + 1, args.n_step):
        try:
            t = float(n) ** args.exponent
        except OverflowError:
            raise OverflowError(f"interaction time {n}^{args.exponent:.17g} overflows to "
                                "infinity") from None
        slope, covariance = oat.protocol_moments(n, t, args.phi, rotation)
        best = _unless_indeterminate(lambda: maximize_slope_ratio(slope, covariance))
        row = {"N": n, "t": t, "phi": args.phi, "rot": args.rot,
               "qfi_max": cf.max_qfi_over_directions(n, t).value,
               "mom_opt": None if best is None else best.value,
               "mom_fixed_rot": _unless_indeterminate(
                   lambda: numerics.mom_reciprocal(slope, covariance, rotation.as_array())),
               "mom_fixed_x": _unless_indeterminate(
                   lambda: numerics.mom_reciprocal(slope, covariance, X_AXIS.as_array())),
               "mom_at_zero": _unless_indeterminate(
                   lambda: oat.mom_reciprocal_at_zero(n, t, rotation))}
        if best is not None and best.kind == "lower_bound":
            row["flag"] = "lower_bound"
        else:
            cells = (row["mom_opt"], row["mom_fixed_rot"], row["mom_fixed_x"])
            row["flag"] = "indeterminate" if None in cells else "ok"
        rows.append(row)
    _emit(args, rows)
    return EXIT_OK


def _fr_variance_row(n: int, k: int, t: float, xi: float, theta: float, system=None) -> dict:
    """fr-variance's row, with --brute's columns given the system; also appendix-c's case."""
    var = cf.fr_variance_analytic(n, k, t, xi, theta)
    row = {"N": n, "K": k, "t": t, "xi": xi, "theta": theta, "var_analytic": var,
           "var_brute": None, "rel_err": None}
    if system is not None:
        from . import lattice_fr as lat

        state = lat.fr_evolve(lat.plus_state(system.n_sites), system, t)
        brute = lat.lattice_variance(state, Direction.from_angles(xi, theta))
        row["var_brute"], row["rel_err"] = brute, abs(var - brute) / max(abs(brute), (n + 2) / 4.0)
    return row


def cmd_fr_variance(args) -> int:
    if args.brute:
        from .lattice_fr import build_system
    system = build_system(args.n, args.k) if args.brute else None
    _emit(args, [_fr_variance_row(args.n, args.k, args.t, args.xi, args.theta, system)])
    return EXIT_OK


def cmd_fr_qfi(args) -> int:
    if args.t_points < 1:
        raise ConfigError("--t-points must be positive")
    ts = cf.linspace(args.t_min, args.t_max, args.t_points)
    if any(t <= 0 or t > math.pi / 2 + 1e-12 for t in ts):
        raise ConfigError("interaction times must lie in (0, pi/2]")
    rows = []
    for t in ts:
        qfi = cf.fr_max_qfi(args.n, args.k, t).value
        try:  # M/sin^2 t overflows at tiny t: that cell is empty, the row keeps its QFI
            inter = cf.overlay_inter(args.n, t)
        except ValueError:
            inter = None
        rows.append({"N": args.n, "K": args.k, "t": t, "branch": "auto",
                     "var_max": qfi / 4.0, "qfi": qfi,
                     "qfi_db": cf.qfi_decibels(qfi, args.n + 2),
                     "overlay_inter": inter,
                     "overlay_largescale": cf.overlay_largescale(args.n, t)})
    _emit(args, rows)
    return EXIT_OK


def cmd_fr_optimize(args) -> int:
    from . import lattice_fr as lat

    if args.t_points < 1:
        raise ConfigError("--t-points must be positive")
    system = lat.build_system(args.n, args.k)
    ts = [(j + 1) * (math.pi / 2) / args.t_points for j in range(args.t_points)]
    rows = []
    for t in ts:
        res = lat.fr_optimal_protocol(system, t, args.phi)
        qfi = cf.fr_max_qfi(args.n, args.k, t).value
        rows.append({"N": args.n, "K": args.k, "t": t, "phi": args.phi,
                     "mom_opt": res.value, "mom_kind": res.kind, "qfi": qfi,
                     "mom_limit": res.limit, "limit_kind": res.limit_kind,
                     "n_x": res.rotation.nx, "n_y": res.rotation.ny, "n_z": res.rotation.nz,
                     "m_x": res.readout.nx, "m_y": res.readout.ny, "m_z": res.readout.nz})
    _emit(args, rows)
    return EXIT_OK


def cmd_husimi(args) -> int:
    from .spin_core import coherent_state, husimi_q, oat_evolve

    if args.xi_points < 1 or args.theta_points < 1:
        raise ConfigError("--xi-points and --theta-points must be at least 1")
    state = oat_evolve(coherent_state(args.n, 1.0), args.t)
    xi = cf.linspace(0.0, math.pi, args.xi_points)
    theta = cf.linspace(-math.pi, math.pi, args.theta_points)
    q = husimi_q(state, [[x] for x in xi], [theta])
    if args.density:
        q *= args.n + 1
        q /= 4.0 * math.pi
    _emit(args, ({"xi": x, "theta": th, "q": value} for x, q_row in zip(xi, q)
                 for th, value in zip(theta, q_row.tolist())))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _closed_form_errors(args, rng):
    for _ in range(args.draws):
        n, t = rng.randint(2, 50), rng.uniform(1e-6, math.pi / 2)
        xi, theta = rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi)
        yield _qfi_row(n, t, Direction.from_angles(xi, theta))["rel_diff"]


def _appendix_c_errors(args, rng):
    from . import lattice_fr as lat

    if args.sites % 2 or args.sites < 4 or args.sites > lat.BRUTE_FORCE_MAX_SITES:
        raise ConfigError(f"--sites must be even, between 4 and {lat.BRUTE_FORCE_MAX_SITES}")
    n = args.sites - 2
    for k in range(1, n // 2 + 1):
        system = lat.build_system(n, k)
        for _ in range(10):
            t, xi = rng.uniform(1e-3, math.pi / 2), rng.uniform(0.1, math.pi - 0.1)
            theta = rng.uniform(-math.pi, math.pi)
            yield _fr_variance_row(n, k, t, xi, theta, system=system)["rel_err"]


def _ghz_errors(args, rng):
    from . import oat_metrology as oat

    for n in (2, 4, 6, 10):
        for _ in range(10):
            yield abs(oat.ghz_parity_error(n, rng.uniform(0.05, math.pi / 2)) - 1.0 / n**2)


def _qcri_errors(args, rng):
    from . import numerics, oat_metrology as oat

    cases = 0
    while cases < args.draws:
        n, t, phi = rng.randint(2, 40), rng.uniform(0.0, math.pi / 2), rng.uniform(0.02, 1.0)
        rotation = Direction.from_angles(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
        readout = Direction.from_angles(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
        variant = oat.VARIANTS[rng.randrange(len(oat.VARIANTS))]
        axis, angle, untwist = oat.sensing(variant, rotation, phi, rng.uniform(-0.5, 0.5),
                                           rng.choice("xy"))
        mom = _unless_indeterminate(lambda: numerics.mom_reciprocal(
            *oat.protocol_moments(n, t, angle, axis, untwist), readout.as_array()))
        if mom is not None:  # a 0/0 draw is no case
            cases += 1
            yield mom - oat.qfi_numeric(n, t, axis)


# name: (errors(args, rng), one per case, the check, the tolerance on the largest error)
_SUITES = {"closed-form": (_closed_form_errors, "qfi closed form vs state-side variance", 1e-9),
           "appendix-c": (_appendix_c_errors, "analytic ring variance vs statevector", 1e-9),
           "ghz": (_ghz_errors, "parity-readout error equals 1/N^2", 1e-12),
           "qcri": (_qcri_errors, "reciprocal error never beats the QFI", 1e-6)}


def cmd_verify(args) -> int:
    import random

    if args.draws < 1:
        raise ConfigError("--draws must be at least 1")
    rows = []
    for suite in _SUITES if args.suite == "all" else (args.suite,):
        cases, check, tolerance = _SUITES[suite]
        errors = list(cases(args, random.Random(args.seed)))
        worst = max(errors, key=lambda e: (math.isnan(e), e))  # a NaN case is the worst
        rows.append({"suite": suite, "check": check, "cases": len(errors), "max_error": worst,
                     "tolerance": tolerance, "status": "pass" if worst <= tolerance else "fail"})
    _emit(args, rows)
    failed = [r for r in rows if r["status"] != "pass"]
    for r in failed:
        print(f"verification failure: {r['suite']}: max_error {r['max_error']:.3e} "
              f"exceeds {r['tolerance']:g}", file=sys.stderr)
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="One-axis-twisting spin metrology: QFI, twist-untwist protocols, "
                    "finite-range Ising rings. Angles are radians throughout.")
    parser.add_argument("--version", action="version", version=f"twistlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, func) -> None:
        # a value such as -1e-3 or -0.3,1.0, not only a plain decimal, as recent argparse
        # releases read it: older ones take such a token for an option and the one before
        # it lacks its value
        p._negative_number_matcher = re.compile(r"-\.?\d")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="write to this path instead of stdout")
        p.set_defaults(func=func)

    p = sub.add_parser("qfi", help="closed-form and numeric QFI at one parameter point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=finite, required=True)
    p.add_argument("--direction", default="x", help="x|y|z or 'xi,theta'")
    common(p, cmd_qfi)

    p = sub.add_parser("mom", help="method-of-moments reciprocal error for one protocol")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=finite, required=True)
    p.add_argument("--phi", type=finite, required=True)
    p.add_argument("--variant", default="twist-untwist",
                   choices=sorted(set(_VARIANT_ALIASES) | set(_VARIANT_ALIASES.values())))
    p.add_argument("--rot", default="x", help="rotation axis: x|y|z or 'xi,theta'")
    p.add_argument("--readout", default="x", help="readout axis: x|y|z or 'xi,theta'")
    p.add_argument("--realign-phi", type=finite, default=0.0)
    p.add_argument("--mz-axis", choices=("x", "y"), default="y")
    common(p, cmd_mom)

    p = sub.add_parser("phase-diagram", help="direction-maximized QFI vs t = N^q")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q-min", type=finite, default=None)
    p.add_argument("--q-max", type=finite, default=None)
    p.add_argument("--q-points", type=int, default=60)
    common(p, cmd_phase_diagram)

    p = sub.add_parser("twist-untwist-scan",
                       help="QFI and reciprocal-error curves vs N at t = N^exponent")
    p.add_argument("--n-min", type=int, default=20)
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--n-step", type=int, default=10)
    p.add_argument("--exponent", type=finite, required=True)
    p.add_argument("--rot", default="x", help="x|y|z or 'xi,theta'")
    p.add_argument("--phi", type=finite, default=1e-3)
    common(p, cmd_twist_untwist_scan)

    p = sub.add_parser("fr-variance", help="analytic ring variance, optionally vs brute force")
    p.add_argument("--n", type=int, required=True, help="even; the ring has n+2 sites")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=finite, required=True)
    p.add_argument("--xi", type=finite, default=math.pi / 2)
    p.add_argument("--theta", type=finite, default=0.0)
    p.add_argument("--brute", action="store_true", help="add a statevector cross-check column")
    common(p, cmd_fr_variance)

    p = sub.add_parser("fr-qfi", help="direction-maximized ring QFI over a time grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t-min", type=finite, default=0.05)
    p.add_argument("--t-max", type=finite, default=math.pi / 2)
    p.add_argument("--t-points", type=int, default=40)
    common(p, cmd_fr_qfi)

    p = sub.add_parser("fr-optimize",
                       help="optimized twist-untwist protocol (exact phi -> 0 rotation optimum, "
                            "exact readout) over a time grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--phi", type=finite, default=1e-3)
    p.add_argument("--t-points", type=int, default=40)
    common(p, cmd_fr_optimize)

    p = sub.add_parser("husimi", help="Husimi Q of the twisted probe on an angle grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=finite, required=True)
    p.add_argument("--xi-points", type=int, default=61)
    p.add_argument("--theta-points", type=int, default=121)
    p.add_argument("--density", action="store_true",
                   help="scale by (N+1)/(4 pi) to a quasi-probability density")
    common(p, cmd_husimi)

    p = sub.add_parser("verify", help="run the brute-force cross-check suites")
    p.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p.add_argument("--sites", type=int, default=8, help="ring size for the appendix-c suite")
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized suites")
    common(p, cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
