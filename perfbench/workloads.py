"""Seeded inputs and verdict checks for the four benchmark workloads.

Every workload is a list of cycles.  A cycle is a fixed multiset of verdict
specifications (input class, trial count, degree, quadrature order); the
seed draws the moduli, generators and fields and the order in which a cycle
runs, never the mix.  Timed runs stop at a cycle boundary, so every run of a
workload covers the same mix of input classes.

Each verdict carries its expected outcome, known by construction, and checks
the program's output against it.  Only public names of `nullag` are called:
`cli.main`, `certify_null` (through `cli certify`),
`boundary_dependence_test`, `action_integral`, `surface_potential`,
`coefficient_identity_residuals` and the model and generator constructors.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nullag import cli, em, micropolar, modelio, quadrature, quasicrystal, rund, tensors, verifier
from nullag.polyfield import random_polyfield

IDENTITY_TOL = 1e-9
SURFACE_TOL = 1e-12
Z81 = [0.0] * 81


@dataclass
class Outcome:
    ok: bool
    detail: str  # why a verdict differs from its expectation; "" when ok
    output: str  # everything the program returned, compared bit for bit on re-runs


class Verdict:
    """One unit of work with its expected result."""

    label = ""
    known_defect = False  # a documented seed defect: it may err without breaking `correct`

    def run(self) -> Outcome:
        raise NotImplementedError


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# Where each subcommand puts its pass flag in the JSON it prints.
_VERDICT_KEY = {"check": "report", "split": "cauchy_analogue", "certify": "certificate"}


class CliVerdict(Verdict):
    """`nullag <command> FILE ...` in-process; stdout is captured and parsed."""

    def __init__(self, label: str, argv: list[str], expected_exit: int, known_defect: bool = False):
        self.label = label
        self.argv = argv
        self.expected_exit = expected_exit
        self.known_defect = known_defect

    def run(self) -> Outcome:
        code, out, err = _call_cli(self.argv)
        output = f"{code}\n{out}"
        if code != self.expected_exit:
            return Outcome(False, f"exit {code}, expected {self.expected_exit}", output)
        if code == 2:
            ok = out == "" and err.startswith("error: ") and err.count("\n") == 1
            return Outcome(ok, "" if ok else "exit 2 without a one-line error", output)
        payload = json.loads(out)
        passed = payload[_VERDICT_KEY[self.argv[0]]]["passed"]
        if passed != (code == 0):
            return Outcome(False, f"passed={passed} disagrees with exit {code}", output)
        return Outcome(True, "", output)


class GeneratorVerdict(CliVerdict):
    """`nullag certify` on a generator file, then the two coefficient
    identities at fixed seeded points."""

    def __init__(self, label, argv, generators, points):
        super().__init__(label, argv, 0)
        self.generators = generators
        self.points = points

    def run(self) -> Outcome:
        outcome = super().run()
        worst = 0.0
        for x, y in self.points:
            lin, quad = rund.coefficient_identity_residuals(self.generators, x, y)
            worst = max(worst, float(np.max(np.abs(lin))), float(np.max(np.abs(quad))))
        output = f"{outcome.output}{worst!r}"
        if not outcome.ok:
            return Outcome(False, outcome.detail, output)
        if worst > IDENTITY_TOL:
            return Outcome(False, f"identity residual {worst:.3e}", output)
        return Outcome(True, "", output)


class ActionVerdict(Verdict):
    """Boundary dependence of the action for one quadratic density, and the
    surface-potential identity for one tilde modulus."""

    def __init__(self, label, lag, null, y, w, order, tilde, phi, surface_order):
        self.label = label
        self.lag, self.null, self.y, self.w, self.order = lag, null, y, w, order
        self.tilde, self.phi, self.surface_order = tilde, phi, surface_order

    def run(self) -> Outcome:
        delta = verifier.boundary_dependence_test(self.lag, self.y, self.w, self.order)
        base = verifier.action_integral(self.lag, self.y, self.order)
        rel = delta / max(1.0, abs(base))
        surface = micropolar.surface_potential(self.tilde, self.phi, self.surface_order)
        pts, wts = quadrature.cube_rule(self.surface_order)
        grad = self.phi.eval_grad(pts)
        volume = 0.5 * float(np.einsum("ijkl,mij,mkl->m", self.tilde, grad, grad) @ wts)
        gap = abs(surface - volume) / max(1.0, abs(volume))
        output = repr((delta, base, surface, volume))
        if (rel <= verifier.ACTION_TOL_REL) != self.null:
            return Outcome(False, f"relative action delta {rel:.3e}, null={self.null}", output)
        if gap > SURFACE_TOL:
            return Outcome(False, f"surface/volume gap {gap:.3e}", output)
        return Outcome(True, "", output)


# ---------------------------------------------------------------- model files

def _flat(t: np.ndarray) -> list[float]:
    return [float(v) for v in t.reshape(-1)]


def _major(rng) -> np.ndarray:
    b = rng.uniform(-1.0, 1.0, (3, 3, 3, 3))
    return 0.5 * (b + np.transpose(b, (2, 3, 0, 1)))


def _sym2(rng) -> np.ndarray:
    m = rng.uniform(-1.0, 1.0, (3, 3))
    return 0.5 * (m + m.T)


def _sym_trailing(rng) -> np.ndarray:
    t = rng.uniform(-1.0, 1.0, (3, 3, 3))
    return 0.5 * (t + np.transpose(t, (0, 2, 1)))


def _nonzero(rng) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))


def _iso(tag: str, values: list[float]) -> dict:
    names = ["lambda", "mu", "kappa", "beta1", "beta2", "beta3", "zeta", "nu", "rho"]
    return {"model": tag, **dict(zip(names, values))}


# Each function below returns a model dictionary for one density class.
def mp_tilde(rng):
    return {"model": "micropolar", "A": Z81, "B": _flat(micropolar.split_B(_major(rng)).b_tilde), "D": Z81}


def mp_hat(rng):
    return {"model": "micropolar", "A": Z81, "B": _flat(micropolar.split_B(_major(rng)).b_hat), "D": Z81}


def mp_random(rng):
    d = rng.uniform(-1.0, 1.0, (3, 3, 3, 3))
    return {"model": "micropolar", "A": _flat(_major(rng)), "B": _flat(_major(rng)), "D": _flat(d)}


def iso_null(rng):
    c = _nonzero(rng)
    return _iso("micropolar_isotropic", [0.0, 0.0, 0.0, c, 0.0, -c])


def hemi_null(rng):
    c = _nonzero(rng)
    return _iso("micropolar_hemitropic", [0.0, 0.0, 0.0, c, 0.0, -c, 0.0, 0.0, 0.0])


_PHASON_REPS = [idx for idx in itertools.product(range(3), repeat=4) if idx[0] < idx[2] and idx[1] < idx[3]]


def qc_admissible(rng):
    chosen = rng.choice(len(_PHASON_REPS), 3, replace=False)
    seeds = {_PHASON_REPS[int(i)]: _nonzero(rng) for i in chosen}
    e = quasicrystal.admissible_phason_modulus(seeds)
    return {"model": "quasicrystal", "C": Z81, "D": Z81, "E": _flat(e)}


def qc_random(rng):
    c = tensors.project(rng.uniform(-1.0, 1.0, (3, 3, 3, 3)), quasicrystal.PHONON_CLASS)
    d = rng.uniform(-1.0, 1.0, (3, 3, 3, 3))
    d = 0.5 * (d + np.transpose(d, (1, 0, 2, 3)))
    return {"model": "quasicrystal", "C": _flat(c), "D": _flat(d), "E": _flat(_major(rng))}


def em_zero(rng):
    return {"model": "em_elast", "C": Z81, "P": [0.0] * 27, "Q": [0.0] * 27,
            "Ediel": [0.0] * 9, "Bperm": [0.0] * 9, "Acpl": [0.0] * 9}


def em_random(rng):
    c = tensors.project(rng.uniform(-1.0, 1.0, (3, 3, 3, 3)), em.EM_ELASTIC_CLASS)
    return {"model": "em_elast", "C": _flat(c), "P": _flat(_sym_trailing(rng)),
            "Q": _flat(_sym_trailing(rng)), "Ediel": _flat(_sym2(rng)),
            "Bperm": _flat(_sym2(rng)), "Acpl": _flat(_sym2(rng))}


# (model function, null) for the quadratic densities of all three families.
DENSITY_CLASSES = [
    (mp_tilde, True), (mp_hat, False), (mp_random, False),
    (iso_null, True), (hemi_null, True),
    (qc_admissible, True), (qc_random, False),
    (em_zero, True), (em_random, False),
]

_LAGRANGIAN = {"micropolar": micropolar.lagrangian, "quasicrystal": quasicrystal.lagrangian,
               "em_elast": em.lagrangian}


def _write(workdir: Path, name: str, obj) -> str:
    path = workdir / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")
    return str(path)


# ------------------------------------------------------------ certify-closed

# 27 trial counts from 2 to the CLI default of 64, skewed to small counts so a
# run makes >= 100 verdicts, with a continuous upper tail so that the 90th
# percentile falls inside a spread of costs rather than between two classes.
CLOSED_TRIALS = [2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, 8, 8, 10, 11, 12, 14, 16, 19, 22, 26, 32, 64]


def certify_closed_cycle(rng, workdir: Path, cycle: int) -> list[Verdict]:
    """9 density classes x field degrees 2..4; trial counts spread over
    CLOSED_TRIALS by a fixed stride, so the mix is the same for every seed."""
    out = []
    for i in range(27):
        make, null = DENSITY_CLASSES[i % 9]
        degree = 2 + i // 9
        trials = CLOSED_TRIALS[(10 * i) % 27]
        path = _write(workdir, f"closed-{cycle}-{i}.json", make(rng))
        modelio.load_input_file(path)
        seed = int(rng.integers(0, 2**31))
        argv = ["certify", path, "--trials", str(trials), "--degree", str(degree), "--seed", str(seed)]
        out.append(CliVerdict(f"{make.__name__}/d{degree}", argv, 0 if null else 1))
    return out


# --------------------------------------------------------- certify-generator

# (field count n, generator degree) per cycle of 20: the degree-3 sets form
# the tail, with the single n=6 set above the 90th percentile and the four
# n=3 sets straddling it.
GENERATOR_MIX = [(3, 2)] * 7 + [(6, 2)] * 8 + [(3, 3)] * 4 + [(6, 3)]
IDENTITY_POINTS = 4


def certify_generator_cycle(rng, workdir: Path, cycle: int) -> list[Verdict]:
    out = []
    for i, (n, degree) in enumerate(GENERATOR_MIX):
        g = rund.random_generator_set(rng, n, degree)
        path = _write(workdir, f"gen-{cycle}-{i}.json", rund.generator_set_to_json(g))
        loaded = modelio.load_input_file(path)
        points = [(rng.uniform(0.0, 1.0, 3), rng.uniform(-1.0, 1.0, n)) for _ in range(IDENTITY_POINTS)]
        seed = int(rng.integers(0, 2**31))
        argv = ["certify", path, "--trials", str(1 + i % 2), "--degree", "2", "--seed", str(seed)]
        out.append(GeneratorVerdict(f"gen/n{n}d{degree}", argv, loaded, points))
    return out


# --------------------------------------------------------- action-quadrature

ACTION_ORDERS = (8, 10, 12)
SURFACE_ORDERS = (4, 5, 6)


def action_quadrature_cycle(rng, workdir: Path, cycle: int) -> list[Verdict]:
    """9 density classes x 2, quadrature orders 8/10/12 on degree-3 fields
    (perturbation degree 1, so order 8 is exact)."""
    out = []
    for i in range(18):
        make, null = DENSITY_CLASSES[i % 9]
        loaded = modelio.load_input_file(_write(workdir, f"action-{cycle}-{i}.json", make(rng)))
        lag = _LAGRANGIAN[loaded.family](loaded.moduli)
        y = random_polyfield(rng, lag.n, 3)
        w = random_polyfield(rng, lag.n, 1)
        tilde = micropolar.split_B(_major(rng)).b_tilde
        phi = random_polyfield(rng, 3, 3)
        out.append(ActionVerdict(f"{make.__name__}/o{ACTION_ORDERS[i % 3]}", lag, null, y, w,
                                 ACTION_ORDERS[i % 3], tilde, phi, SURFACE_ORDERS[i % 3]))
    return out


# --------------------------------------------------------------- check-split

def _check_split_files(rng) -> list[tuple[str, dict, int, int]]:
    """(name, model, expected check exit, expected split exit) for valid
    files of all five tags: null-class projections pass `check`, files
    whose tilde part vanishes pass `split`, random tensors fail both."""
    b_hat = micropolar.split_B(_major(rng)).b_hat
    b_null = tensors.project(rng.uniform(-1.0, 1.0, (3, 3, 3, 3)), micropolar.TILDE_CLASS)
    e_null = tensors.project(rng.uniform(-1.0, 1.0, (3, 3, 3, 3)), quasicrystal.PHASON_NULL_CLASS)
    d = rng.uniform(-1.0, 1.0, (3, 3, 3, 3))
    iso_rand = [_nonzero(rng) for _ in range(6)]
    hemi_rand = [_nonzero(rng) for _ in range(9)]
    iso_eq = [_nonzero(rng) for _ in range(6)]
    iso_eq[5] = iso_eq[3]  # beta3 = beta1: the tilde part vanishes
    hemi_eq = [_nonzero(rng) for _ in range(9)]
    hemi_eq[5] = hemi_eq[3]
    return [
        ("mp-null", {"model": "micropolar", "A": Z81, "B": _flat(b_null), "D": Z81}, 0, 1),
        ("mp-hat", {"model": "micropolar", "A": _flat(_major(rng)), "B": _flat(b_hat), "D": _flat(d)}, 1, 0),
        ("mp-random", mp_random(rng), 1, 1),
        ("mp-zero", {"model": "micropolar", "A": Z81, "B": Z81, "D": Z81}, 0, 0),
        ("iso-null", iso_null(rng), 0, 1),
        ("iso-beq", _iso("micropolar_isotropic", iso_eq), 1, 0),
        ("iso-random", _iso("micropolar_isotropic", iso_rand), 1, 1),
        ("hemi-null", hemi_null(rng), 0, 1),
        ("hemi-beq", _iso("micropolar_hemitropic", hemi_eq), 1, 0),
        ("hemi-random", _iso("micropolar_hemitropic", hemi_rand), 1, 1),
        ("qc-null", {"model": "quasicrystal", "C": Z81, "D": Z81, "E": _flat(e_null)}, 0, 2),
        ("qc-random", qc_random(rng), 1, 2),
        ("em-zero", em_zero(rng), 0, 2),
        ("em-random", em_random(rng), 1, 2),
    ]


def _malformed_files(rng) -> list[tuple[str, object, bool]]:
    """(name, file content, subcommands under which it is a known defect).

    Every one of these must exit 2 under check, split and certify.  Three
    are seed defects, kept so that they show in the error count: the "1/0"
    coefficient (a ZeroDivisionError under every subcommand), the 1.7
    exponent (truncated to 1, so certify exits 0) and the negative exponent
    (certify indexes a power table with it and raises IndexError).  The
    last two use fixed one-variable generators, so their outcome does not
    depend on the seed and a wrongly accepted certification stays cheap.
    """
    valid = mp_random(rng)
    short = dict(valid, A=valid["A"][:80])
    unknown = dict(valid, extra=1)
    missing = {k: v for k, v in valid.items() if k != "D"}
    asym = dict(valid, B=_flat(rng.uniform(-1.0, 1.0, (3, 3, 3, 3))))
    iso_str = dict(iso_null(rng), beta1="1.0")
    g = rund.generator_set_to_json(rund.random_generator_set(rng, 3, 2))
    g_zero_den = json.loads(json.dumps(g))
    g_zero_den[0][0]["coeff"] = "1/0"
    g_bad_keys = json.loads(json.dumps(g))
    g_bad_keys[1][0]["power"] = g_bad_keys[1][0].pop("exponents")
    g_ragged = json.loads(json.dumps(g))
    g_ragged[2][0]["exponents"] = g_ragged[2][0]["exponents"] + [0]
    others = [[{"exponents": [0, 1, 0, 1], "coeff": "1/2"}], [{"exponents": [0, 0, 1, 0], "coeff": "-1"}]]
    g_fraction = [[{"exponents": [1.7, 0, 0, 0], "coeff": "1"}]] + others
    g_negative = [[{"exponents": [1, 0, 0, -1], "coeff": "1"}, {"exponents": [0, 0, 0, 2], "coeff": "1"}]] + others
    return [
        ("short-array", short, None),
        ("unknown-key", unknown, None),
        ("missing-key", missing, None),
        ("unknown-tag", dict(valid, model="cosserat"), None),
        ("asymmetric-B", asym, None),
        ("string-scalar", iso_str, None),
        ("not-an-object", 42, None),
        ("broken-json", '{"model": "micropolar", "A": [', None),
        ("gen-zero-denominator", g_zero_den, {"check", "split", "certify"}),
        ("gen-fractional-exponent", g_fraction, {"certify"}),
        ("gen-bad-keys", g_bad_keys, None),
        ("gen-ragged", g_ragged, None),
        ("gen-negative-exponent", g_negative, {"certify"}),
        ("gen-two-polys", g[:2], None),
        ("gen-no-terms", [[], [], []], None),
    ]


# Valid-file copies per cycle; sets the malformed-input share of the corpus.
CHECK_SPLIT_COPIES = 5


def check_split_cycle(rng, workdir: Path, cycle: int) -> list[Verdict]:
    out = []
    for copy in range(CHECK_SPLIT_COPIES):
        for name, model, check_exit, split_exit in _check_split_files(rng):
            path = _write(workdir, f"cs-{cycle}-{copy}-{name}.json", model)
            modelio.load_input_file(path)
            out.append(CliVerdict(f"check/{name}", ["check", path], check_exit))
            out.append(CliVerdict(f"split/{name}", ["split", path], split_exit))
    for name, content, defect_in in _malformed_files(rng):
        path = _write(workdir, f"cs-{cycle}-bad-{name}.json", content)
        for command in ("check", "split", "certify"):
            argv = [command, path] + (["--trials", "1", "--degree", "2"] if command == "certify" else [])
            out.append(CliVerdict(f"{command}/{name}", argv, 2, bool(defect_in and command in defect_in)))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build_cycle: Callable[[np.random.Generator, Path, int], list[Verdict]]
    trace_cycles: int  # cycles run by the traced pass (fixed, so counts repeat exactly)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-closed",
            "closed-form certify on all three families; ~93% of verdict time is polyfield "
            "eval/grad/hess at one point per call; passing and failing models mixed",
            certify_closed_cycle, 2,
        ),
        Workload(
            "certify-generator",
            "Rund generator files through certify plus the coefficient identities; the only "
            "finite-difference, GenPoly.eval and first_partials work; degree-3 sets form the tail",
            certify_generator_cycle, 2,
        ),
        Workload(
            "action-quadrature",
            "boundary-dependence actions and surface potentials; polyfield evaluated at hundreds "
            "of quadrature nodes per call instead of one point",
            action_quadrature_cycle, 10,
        ),
        Workload(
            "check-split",
            "check/split on all five tags plus malformed files; cli, modelio, report, tensors and "
            "the model modules; no certification work except through seed defects",
            check_split_cycle, 10,
        ),
    )
}

# Distinct verdict inputs generated in set-up; timed runs go round them.  A
# run makes at least 100 verdicts, so the generator sets, whose cost varies
# with their random terms, are rarely reused within a run.
POOL_VERDICTS = 160


def build_pool(name: str, seed: int, workdir: Path) -> list[list[Verdict]]:
    """Generate, write and load whole cycles of inputs, at least POOL_VERDICTS."""
    workload = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    workdir.mkdir(parents=True, exist_ok=True)
    pool: list[list[Verdict]] = []
    while sum(map(len, pool)) < POOL_VERDICTS:
        pool.append(workload.build_cycle(rng, workdir, len(pool)))
    return pool
