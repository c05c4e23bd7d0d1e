"""Output checks for benchmark jobs.

Each check reads a job's JSON output and returns None when it is correct or a
one-line reason when it is not.  Direction-maximised QFIs are compared with
4 lambda_max(Sigma), where Sigma is the 3x3 covariance matrix of (Jx, Jy, Jz)
that this module assembles from six evaluations of the program's own closed
forms: Var(n.J) = n^T Sigma n is a quadratic form in n, so the three axes and
the three diagonals between them determine it.
"""
from __future__ import annotations

import json
import math

import numpy as np

from twistlab import lattice_fr, oat_metrology

MAX_REL = 1e-9          # maximised QFI vs 4 lambda_max, and numeric cross-checks
QCRB_SLACK = 1e-6       # method-of-moments reciprocal error <= QFI (1 + slack)

_AXES = {"x": (math.pi / 2, 0.0), "y": (math.pi / 2, math.pi / 2), "z": (0.0, 0.0)}
_DIAGONALS = {("x", "y"): (math.pi / 2, math.pi / 4), ("x", "z"): (math.pi / 4, 0.0),
              ("y", "z"): (math.pi / 4, math.pi / 2)}


def covariance(var) -> np.ndarray:
    """Sigma from var(xi, theta) = Var(n.J) at the three axes and three diagonals."""
    names = "xyz"
    sigma = np.empty((3, 3))
    for i, a in enumerate(names):
        sigma[i, i] = var(*_AXES[a])
    for (a, b), angles in _DIAGONALS.items():
        i, j = names.index(a), names.index(b)
        # Var((e_a + e_b)/sqrt 2) = (S_aa + S_bb)/2 + S_ab
        sigma[i, j] = sigma[j, i] = var(*angles) - (sigma[i, i] + sigma[j, j]) / 2.0
    return sigma


def max_qfi(var) -> float:
    return 4.0 * float(np.linalg.eigvalsh(covariance(var))[-1])


def dicke_max_qfi(n: int, t: float) -> float:
    return max_qfi(lambda xi, theta: oat_metrology.qfi_closed_form(n, t, xi, theta) / 4.0)


def ring_max_qfi(n: int, k: int, t: float, branch: str = "auto") -> float:
    return max_qfi(lambda xi, theta: lattice_fr.fr_variance_analytic(n, k, t, xi, theta, branch))


def _angles(axis: str) -> tuple[float, float]:
    if axis in _AXES:
        return _AXES[axis]
    xi, theta = (float(p) for p in axis.split(","))
    return xi, theta


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _check_max(label: str, value: float, exact: float) -> str | None:
    if not _rel(value, exact) <= MAX_REL:
        return (f"{label} {value!r} differs from 4 lambda_max(Sigma) = {exact!r} "
                f"by {_rel(value, exact):.2e}")
    return None


def _check_qcrb(label: str, mom: float | None, qfi: float) -> str | None:
    if mom is not None and not mom <= qfi * (1.0 + QCRB_SLACK):
        return f"{label} {mom!r} exceeds the QFI {qfi!r} (quantum Cramer-Rao bound)"
    return None


def _qfi(r):
    if not r["rel_diff"] <= MAX_REL:
        return f"rel_diff {r['rel_diff']:.2e} exceeds {MAX_REL:g}"
    return None


def _mom(r):
    if r["flag"] not in ("ok", "indeterminate"):
        return f"flag {r['flag']!r}"
    return _check_qcrb("reciprocal_error", r["reciprocal_error"], r["qfi"])


def _phase_diagram(r):
    return _check_max("qfi_max", r["qfi_max"], dicke_max_qfi(r["N"], r["t"]))


def _twist_untwist(r):
    bad = _check_max("qfi_max", r["qfi_max"], dicke_max_qfi(r["N"], r["t"]))
    qfi_rot = oat_metrology.qfi_closed_form(r["N"], r["t"], *_angles(r["rot"]))
    for label in ("mom_opt", "mom_fixed_rot", "mom_fixed_x", "mom_at_zero"):
        bad = bad or _check_qcrb(label, r[label], qfi_rot)
    return bad


def _fr_variance(r):
    if r["rel_err"] is not None and not r["rel_err"] <= MAX_REL:
        return f"rel_err {r['rel_err']:.2e} exceeds {MAX_REL:g}"
    return None


def _fr_qfi(r):
    return _check_max("qfi", r["qfi"], ring_max_qfi(r["N"], r["K"], r["t"], r["branch"]))


def _fr_optimize(r):
    return (_check_max("qfi", r["qfi"], ring_max_qfi(r["N"], r["K"], r["t"]))
            or _check_qcrb("mom_opt", r["mom_opt"], r["qfi"]))


def _husimi(r):
    q = r["q"]
    return None if math.isfinite(q) and -1e-12 <= q <= 1.0 + 1e-12 else f"q {q!r} outside [0, 1]"


def _verify(r):
    return None if r["status"] == "pass" else f"suite {r['suite']} status {r['status']!r}"


_ROW_CHECKS = {
    "qfi": _qfi, "mom": _mom, "phase-diagram": _phase_diagram,
    "twist-untwist-scan": _twist_untwist, "fr-variance": _fr_variance, "fr-qfi": _fr_qfi,
    "fr-optimize": _fr_optimize, "husimi": _husimi, "verify": _verify,
}


def check_output(command: str, rows_expected: int, text: str) -> tuple[str | None, int]:
    """(failure reason or None, number of records) for one job's JSON output."""
    try:
        records = json.loads(text)["records"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"output is not the expected JSON: {exc}", 0
    if len(records) != rows_expected:
        return f"expected {rows_expected} records, got {len(records)}", len(records)
    check = _ROW_CHECKS[command]
    for row in records:
        try:
            bad = check(row)
        except (KeyError, TypeError, ValueError) as exc:
            bad = f"malformed record {row!r}: {exc}"
        if bad:
            return bad, len(records)
    return None, len(records)
