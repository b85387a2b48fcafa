"""The three benchmark workloads: seeded inputs, one timed call per operation,
and the correctness gate applied to every output.

An operation is one figure (``catalog``), one state (``state-sweep``) or one
Laplace probe with its Berry state (``geometry``).  ``make_ops`` builds the
inputs of one pass from the seed as plain Python values, so the
timed call includes every piece of ``polycs`` a user's call would run.
``run_op`` is the only code inside the timed region; ``check_op`` runs after
it and calls nothing in ``polycs``, so a traced pass records only the
program's own work.

Import this module only after ``polycs`` has been imported from the
checkout's ``src`` directory.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from polycs import algebra, geometry, stats
from polycs.figures import FIGURE_CATALOG, FigureRequest, render_figure
from polycs.states import CSFamily, CSSpec, cs_from_xbar

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "golden"
CATALOG_SHA256 = HERE / "catalog_sha256.json"

WORKLOADS = ("catalog", "state-sweep", "geometry")

# Stratified state grid (state-sweep): every cell gets one state per round.
SWEEP_PS = (1, 2, 3, 4)
SWEEP_LABELS = (0.5, 1.0, 3.0, 8.0, 20.0, 50.0)
SWEEP_DECADES = (-3, -2, -1, 0, 1, 2)  # xbar in [10^d, 10^(d+1))
SWEEP_ROUNDS = 2
COEFF_CHOICES = (0.5, 1.0, 2.0, 3.0)
LINEAR_PCS_ZMAX = 0.99

# Laplace probes (geometry): every cell gets one probe per round.
PROBE_KS = (0.25, 0.5, 1.0, 3.0, 8.0)
PROBE_PS = (1, 2, 3)
PROBE_LENGTHS = tuple(range(1, 9))
PROBE_ROUNDS = 4
BERRY_LABELS = (0.5, 1.0, 3.0, 8.0)

OVERFLOW_FAILURES = ("OverflowError", "NonFiniteStatistic")  # see tolerated()

STATS_TOL = 1e-8  # stats/closed-vs-oracle, relative
LAPLACE_TOL = 1e-8  # laplace/bridge-identity gap
BERRY_CLOSED_TOL = 1e-8  # linear su(2) closed form, absolute
BERRY_FORMULA_RTOL = 1e-12  # phase against -4 pi A r^2 sign(rate)


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng([seed % 2**63, tag])


def _coeffs(rng: np.random.Generator, p: int) -> tuple[float, ...]:
    return tuple(float(c) for c in rng.choice(COEFF_CHOICES, size=p))


def make_ops(workload: str, seed: int) -> list[dict]:
    """Inputs of one pass; the same seed gives the same list."""
    rng = _rng(seed, workload)
    if workload == "catalog":
        order = sorted(FIGURE_CATALOG)
        return [{"figure": order[i]} for i in rng.permutation(len(order))]
    if workload == "state-sweep":
        return _sweep_ops(rng)
    if workload == "geometry":
        return _geometry_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_ops(rng: np.random.Generator) -> list[dict]:
    ops = []
    for _ in range(SWEEP_ROUNDS):
        for family in CSFamily:
            for p in SWEEP_PS:
                for label in SWEEP_LABELS:
                    for decade in SWEEP_DECADES:
                        coeffs = _coeffs(rng, p)
                        if family is CSFamily.SU11_PCS and p == 1:
                            # Linear su(1,1) PCS converges only for z < 1.
                            xbar = float(rng.uniform(0.0, LINEAR_PCS_ZMAX))
                        else:
                            xbar = float(10.0 ** (decade + rng.uniform()))
                        ops.append(
                            {
                                "family": family.value,
                                "coeffs": coeffs,
                                "label": label,
                                "xbar": xbar,
                            }
                        )
    return ops


def _berry_state(rng: np.random.Generator, family: CSFamily) -> dict:
    p = int(rng.choice(PROBE_PS))
    coeffs = _coeffs(rng, p)
    label = float(rng.choice(BERRY_LABELS))
    if family is CSFamily.SU11_PCS and p == 1:
        radius = math.sqrt(rng.uniform(0.05, 0.9) * coeffs[-1])
    elif family is CSFamily.SU2_PCS:
        radius = float(rng.uniform(0.1, 1.5))
    else:
        radius = float(rng.uniform(0.1, 2.0))
    return {
        "family": family.value,
        "coeffs": coeffs,
        "label": label,
        "radius": radius,
        "rate": float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)),
    }


def _geometry_ops(rng: np.random.Generator) -> list[dict]:
    ops = []
    families = list(CSFamily)
    for _ in range(PROBE_ROUNDS):
        for k in PROBE_KS:
            for p in PROBE_PS:
                for length in PROBE_LENGTHS:
                    raw = rng.normal(size=length) + 1j * rng.normal(size=length)
                    raw /= np.linalg.norm(raw)
                    ops.append(
                        {
                            "c": tuple(complex(v) for v in raw),
                            "k": k,
                            "Z": float(rng.uniform(0.5, 4.0)),
                            "coeffs": _coeffs(rng, p),
                            "state": _berry_state(rng, families[len(ops) % 3]),
                        }
                    )
    return ops


def _deformation(family: CSFamily, coeffs, label) -> algebra.DeformationSpec:
    if family is CSFamily.SU2_PCS:
        return algebra.su2_spec(coeffs, label)
    return algebra.su11_spec(coeffs, label)


def run_op(workload: str, op: dict):
    """The timed call: what a user of ``polycs`` runs for this input."""
    if workload == "catalog":
        return render_figure(FigureRequest(op["figure"]))
    if workload == "state-sweep":
        family = CSFamily(op["family"])
        spec = cs_from_xbar(family, _deformation(family, op["coeffs"], op["label"]), op["xbar"])
        return stats.stat_record(spec)
    probe = geometry.LaplaceProbe(op["c"], op["k"], op["Z"], deformation_coeffs=op["coeffs"])
    _, _, gap = geometry.laplace_check(probe)
    st = op["state"]
    family = CSFamily(st["family"])
    spec = CSSpec(family, _deformation(family, st["coeffs"], st["label"]), complex(st["radius"]))
    a_val = geometry.connection_coefficient(spec)
    gamma = geometry.berry_phase_loop(spec, geometry.LoopSpec(st["radius"], st["rate"]))
    return gap, a_val, gamma


def tolerated(workload: str, failure: str, typed: bool) -> bool:
    """Whether a failed operation leaves the run's ``correct`` flag true.

    Every failure counts as a failed operation.  The catalog must render every
    figure.  Elsewhere a typed ``PolycsError`` is the program refusing an
    input, and an overflow (a raw ``OverflowError`` or a non-finite
    statistic) is the known defect of the code at large labels and
    arguments: su(2) PCS with j >= 20, and linear su(1,1) PCS with k = 50
    near z = 1.  A finite wrong answer or any other exception is a new
    failure and marks the run incorrect.
    """
    if workload == "catalog":
        return False
    return typed or failure in OVERFLOW_FAILURES


def load_references() -> dict[str, str]:
    """sha256 of every catalog figure's CSV bytes, recorded from the seed code."""
    return json.loads(CATALOG_SHA256.read_text())


def check_op(workload: str, op: dict, out, refs: dict[str, str]) -> str | None:
    """None when the output passes its gate, else the name of the failed check."""
    if workload == "catalog":
        data = out.encode()
        fid = op["figure"]
        if hashlib.sha256(data).hexdigest() != refs.get(fid):
            return "CatalogBytesMismatch"
        golden = GOLDEN / f"{fid}.csv"
        if golden.exists() and data != golden.read_bytes():
            return "GoldenMismatch"
        return None
    if workload == "state-sweep":
        return _check_record(op, out)
    return _check_geometry(op, out)


def _check_record(op: dict, rec) -> str | None:
    """stats/closed-vs-oracle against the record's own photon_dist."""
    if not all(math.isfinite(v) for v in (rec.mean_n, rec.mandel_q, rec.metric)):
        return "NonFiniteStatistic"
    probs = np.asarray(rec.photon_dist)
    n = np.arange(probs.size)
    mean_o = float(np.dot(n, probs))
    fact2_o = float(np.dot(n * (n - 1), probs))
    err = abs(rec.mean_n - mean_o) / max(abs(mean_o), 1.0)
    if rec.xbar > 0.0 and mean_o > 1e-12:
        corr_o = fact2_o / mean_o**2
        q_o = fact2_o / mean_o - mean_o
        err = max(err, abs(rec.intensity_corr - corr_o) / max(abs(corr_o), 1.0))
        err = max(err, abs(rec.mandel_q - q_o) / max(abs(q_o), 1.0))
    if not err <= STATS_TOL:
        return "ClosedVsOracleMismatch"
    return None


def _check_geometry(op: dict, out) -> str | None:
    gap, a_val, gamma = out
    if not gap <= LAPLACE_TOL:
        return "LaplaceGap"
    st = op["state"]
    r2 = st["radius"] ** 2
    want = -4.0 * math.pi * a_val * r2 * math.copysign(1.0, st["rate"])
    if not abs(gamma - want) <= BERRY_FORMULA_RTOL * max(abs(want), 1.0):
        return "BerryFormulaMismatch"
    if st["family"] == CSFamily.SU2_PCS.value and len(st["coeffs"]) == 1:
        # Linear su(2): x = c_1 r^2 and A = j c_1 / (1 + x); c_1 = 1 is the
        # classical -4 pi j r^2 / (1 + r^2).
        c1 = st["coeffs"][0]
        closed = -4.0 * math.pi * st["label"] * c1 * r2 / (1.0 + c1 * r2)
        closed *= math.copysign(1.0, st["rate"])
        if not abs(gamma - closed) <= BERRY_CLOSED_TOL:
            return "BerryClosedFormMismatch"
    return None
