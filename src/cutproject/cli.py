"""Command-line surface: scheme configs, model sets, diffraction, oracle scans.

Configs are flat key = value text files.  Numeric values accept arithmetic
expressions in which the literal ``golden`` expands to the golden ratio with
17 significant digits, so canonical irrational bases are reproducible without
symbolic algebra.  Exit codes: 0 success, 1 check failure, 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .comb import (WeightedComb, _write_table, autocorrelation_patch, eps_norm_almost_periods,
                   model_comb)
from .cps import CutProjectScheme, Window, internal_density_check, model_set, verify_injectivity
from .lattice import DEFAULT_BUDGET, Box, BudgetError, Lattice, _group_rows
from .posdef import lift_pd_crosscheck
from .spectra import (
    Atomic,
    Separable,
    TruncationError,
    atomic_profile,
    box_profile,
    diffraction,
    make_cutoff,
    oracle_amplitudes,
    spectrum_metadata_json,
    spectrum_to_csv,
    trapezoid_profile,
)

GOLDEN = 1.6180339887498949  # golden ratio to 17 significant digits

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


def _eval_node(node):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float, str)):
            return node.value
        raise ConfigError(f"unsupported literal {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id == "golden":
            return GOLDEN
        raise ConfigError(f"unknown name {node.id!r} (only 'golden' is recognised)")
    if isinstance(node, ast.List):
        return [_eval_node(el) for el in node.elts]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _eval_node(node.operand)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        left, right = _eval_node(node.left), _eval_node(node.right)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        return left / right
    raise ConfigError("unsupported expression")


def _parse_value(text: str):
    try:
        return _eval_node(ast.parse(text.strip(), mode="eval"))
    except ConfigError:
        raise
    except (SyntaxError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def parse_config_text(text: str) -> dict:
    """Flat key = value pairs; [section] headers prefix keys with 'section.'."""
    values: dict = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if section:
            key = f"{section}.{key}"
        try:
            values[key] = _parse_value(value)
        except ConfigError as exc:
            raise ConfigError(f"key '{key}': {exc}") from None
    return values


def _flat_box(values, key) -> Box:
    flat = np.asarray(values, dtype=float).reshape(-1)
    if len(flat) % 2:
        raise ConfigError(f"key '{key}': box needs an even number of entries (lo, hi pairs)")
    return Box(flat[0::2], flat[1::2])


@dataclass
class SchemeConfig:
    """Everything a run needs, resolved from a flat config file."""

    d: int
    m: int
    scheme: CutProjectScheme
    window: Window
    profile: Separable | Atomic
    cutoff_plateau: Box
    cutoff_margin: np.ndarray
    query: Box
    patch_query: Box
    threshold: float
    seed: int
    budget: int
    oracle_radius: float
    inj_radius: float
    inj_tol: float
    density_eps: float
    density_radius: float
    density_box: Box
    raw: dict = field(default_factory=dict)

    def cutoff(self):
        return make_cutoff(self.cutoff_plateau, self.cutoff_margin)


def resolve_config(values: dict) -> SchemeConfig:
    def need(key):
        if key not in values:
            raise ConfigError(f"missing required key '{key}'")
        return values[key]

    d, m = int(need("d")), int(need("m"))
    basis_rows = need("basis")
    basis = np.asarray(basis_rows, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise ConfigError("key 'basis': must be a square row-major matrix")
    if basis.shape[0] != d + m:
        raise ConfigError(f"key 'basis': rank {basis.shape[0]} does not match d + m = {d + m}")
    try:
        lat = Lattice(basis)
        scheme = CutProjectScheme(lat=lat, d=d, m=m)
    except ValueError as exc:
        raise ConfigError(f"key 'basis': {exc}") from None

    window_boxes = need("window")
    try:
        window = Window([_flat_box(part, "window") for part in window_boxes])
    except ValueError as exc:
        raise ConfigError(f"key 'window': {exc}") from None
    if window.m != m:
        raise ConfigError(f"key 'window': dimension {window.m} does not match m = {m}")

    kind = values.get("profile", "box")
    if kind == "box":
        profile = box_profile(_flat_box(values.get("profile_box", need("window")[0]), "profile_box"))
    elif kind == "trapezoid":
        plateau = _flat_box(need("profile_plateau"), "profile_plateau")
        profile = trapezoid_profile(plateau.lo, plateau.hi, float(need("profile_margin")))
    elif kind == "atoms":
        rows = np.asarray(need("profile_atoms"), dtype=float)
        profile = atomic_profile(rows[:, :m], rows[:, m] + 1j * rows[:, m + 1])
    else:
        raise ConfigError(f"key 'profile': unknown kind {kind!r}")
    if profile.m != m:
        raise ConfigError("key 'profile': dimension does not match m")

    plateau = (
        _flat_box(values["cutoff_plateau"], "cutoff_plateau")
        if "cutoff_plateau" in values
        else window.bounding_box()
    )
    margin = np.broadcast_to(
        np.asarray(values.get("cutoff_margin", 0.1), dtype=float), (m,)
    ).copy()
    cutoff = make_cutoff(plateau, margin)
    if not cutoff.covers(window):
        raise ConfigError("key 'cutoff_plateau': plateau must contain the window")

    query = _flat_box(need("query"), "query")
    if query.dim != d:
        raise ConfigError(f"key 'query': dimension {query.dim} does not match d = {d}")
    patch_query = _flat_box(values["patch_query"], "patch_query") if "patch_query" in values else query
    if patch_query.dim != d:
        raise ConfigError(f"key 'patch_query': dimension {patch_query.dim} does not match d = {d}")

    density_box = (
        _flat_box(values["density_box"], "density_box")
        if "density_box" in values
        else window.bounding_box()
    )
    return SchemeConfig(
        d=d,
        m=m,
        scheme=scheme,
        window=window,
        profile=profile,
        cutoff_plateau=plateau,
        cutoff_margin=margin,
        query=query,
        patch_query=patch_query,
        threshold=float(values.get("threshold", 0.01)),
        seed=int(values.get("seed", 0)),
        budget=int(values.get("budget", DEFAULT_BUDGET)),
        oracle_radius=float(values.get("oracle_radius", 2000.0)),
        inj_radius=float(values.get("inj_radius", 50.0)),
        inj_tol=float(values.get("inj_tol", 1e-6)),
        density_eps=float(values.get("density_eps", 0.05)),
        density_radius=float(values.get("density_radius", 200.0)),
        density_box=density_box,
        raw=dict(values),
    )


def load_config(path: str) -> SchemeConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    return resolve_config(parse_config_text(text))


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def cmd_check(cfg: SchemeConfig, args) -> int:
    inj = verify_injectivity(cfg.scheme, cfg.inj_radius, cfg.inj_tol, budget=cfg.budget)
    dens = internal_density_check(
        cfg.scheme, cfg.density_box, cfg.density_eps, cfg.density_radius, budget=cfg.budget
    )
    rng = np.random.default_rng(cfg.seed)
    z = rng.integers(-20, 21, size=(100, cfg.d + cfg.m))
    w = rng.integers(-20, 21, size=(100, cfg.d + cfg.m))
    from .lattice import dual

    pair = np.sum(cfg.scheme.lat.points(z) * dual(cfg.scheme.lat).points(w), axis=1)
    pairing_err = float(np.max(np.abs(np.exp(2j * np.pi * pair) - 1.0)))
    pairing_ok = pairing_err < 1e-10

    print(f"injectivity: {'ok' if inj.ok else 'FAIL'} "
          f"(radius {_fmt(cfg.inj_radius)}, min physical norm {_fmt(inj.min_physical_norm)})")
    if not inj.ok:
        print(f"  witness z = {inj.witness.tolist()}")
    print(f"internal density: {'ok' if dens.ok else 'FAIL'} "
          f"(eps {_fmt(cfg.density_eps)}, max gap {_fmt(dens.max_gap)}, {dens.n_points} points)")
    print(f"dual pairing: {'ok' if pairing_ok else 'FAIL'} (max |exp(2 pi i k.l) - 1| = {pairing_err:.3e})")
    return EXIT_OK if (inj.ok and dens.ok and pairing_ok) else EXIT_CHECK_FAILED


def cmd_modelset(cfg: SchemeConfig, args) -> int:
    z = model_set(cfg.scheme, cfg.window, cfg.patch_query, budget=cfg.budget)
    x, xstar = cfg.scheme.split(z)
    header = (
        [f"x{i + 1}" for i in range(cfg.d)]
        + [f"xstar{i + 1}" for i in range(cfg.m)]
        + [f"z{i + 1}" for i in range(cfg.d + cfg.m)]
    )
    _write_table(args.out, header, [*x.T, *xstar.T, *z.T])
    return EXIT_OK


def cmd_diffract(cfg: SchemeConfig, args) -> int:
    try:
        spectrum = diffraction(
            cfg.scheme, cfg.window, cfg.profile, cfg.query, cfg.threshold, cfg.cutoff(),
            budget=cfg.budget,
        )
    except TruncationError as exc:
        print(f"truncation failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    spectrum_to_csv(spectrum, args.out)
    if args.out:
        meta = spectrum_metadata_json(spectrum, extra={"config": _jsonable(cfg.raw)})
        with open(args.out + ".json", "w") as fh:
            fh.write(meta + "\n")
    return EXIT_OK


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def cmd_oracle(cfg: SchemeConfig, args) -> int:
    if args.radius is not None and args.radius <= 0:
        print("oracle radius must be positive", file=sys.stderr)
        return EXIT_USAGE
    radius = args.radius if args.radius is not None else cfg.oracle_radius
    spectrum = diffraction(
        cfg.scheme, cfg.window, cfg.profile, cfg.query, cfg.threshold, cfg.cutoff(),
        budget=cfg.budget,
    )
    if args.k:
        wanted = np.array([[float(x) for x in v.split(",")] for v in args.k],
                          dtype=float).reshape(-1, cfg.d)
        idx = []
        for k in wanted:
            gaps = np.linalg.norm(spectrum.ks - k, axis=1)
            if len(gaps) == 0 or np.min(gaps) > 1e-6:
                print(f"k = {k.tolist()} matches no spectrum peak above the threshold",
                      file=sys.stderr)
                return EXIT_USAGE
            idx.append(int(np.argmin(gaps)))
        ks = spectrum.ks[idx]
        closed = spectrum.amplitudes[idx]
    else:
        order = np.argsort(-np.abs(spectrum.amplitudes))[: args.top]
        ks = spectrum.ks[order]
        closed = spectrum.amplitudes[order]
    oracle = oracle_amplitudes(cfg.scheme, cfg.window, cfg.profile, ks, radius, budget=cfg.budget)
    ref = float(np.max(np.abs(closed)))
    header = [f"k{i + 1}" for i in range(cfg.d)] + [
        "re_closed", "im_closed", "re_oracle", "im_oracle", "agreement",
    ]
    gap = closed - oracle
    agreement = np.hypot(gap.real, gap.imag) / ref  # hypot is the scalar abs, bit for bit
    _write_table(args.out, header,
                 [*ks.T, closed.real, closed.imag, oracle.real, oracle.imag, agreement])
    return EXIT_OK


def _patch_comb(cfg: SchemeConfig, rng) -> WeightedComb:
    z = model_set(cfg.scheme, cfg.window, cfg.patch_query, budget=cfg.budget)
    if len(z) == 0:
        raise ConfigError("query holds no model-set points")
    weights = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
    return model_comb(cfg.scheme, z, weights)


def cmd_pdcheck(cfg: SchemeConfig, args) -> int:
    rng = np.random.default_rng(args.seed if args.seed is not None else cfg.seed)
    comb = _patch_comb(cfg, rng)
    region = Box(comb.extent.lo - 1.0, comb.extent.hi + 1.0)
    gamma = autocorrelation_patch(comb, region)
    if args.corrupt:
        idx = int(np.argmin(np.linalg.norm(gamma.positions, axis=1)))
        w = gamma.weights.copy()
        w[idx] = -w[idx]
        gamma = WeightedComb(gamma.positions, w, refs=gamma.refs, dim=gamma.dim, validate=False)
    bbox = cfg.window.bounding_box()
    diff_window = Window(Box(bbox.lo - bbox.hi, bbox.hi - bbox.lo))
    report = lift_pd_crosscheck(cfg.scheme, gamma, diff_window, trials=args.trials,
                                seed=args.seed if args.seed is not None else cfg.seed)
    print(f"configurations: {args.trials} trials, seed {report.seed}")
    print(f"downstairs positive semidefinite: {'ok' if report.down_ok else 'FAIL'} "
          f"(min eigenvalue {report.min_eigs_down.min():.3e})")
    print(f"lifted positive semidefinite: {'ok' if report.up_ok else 'FAIL'} "
          f"(min eigenvalue {report.min_eigs_up.min():.3e})")
    print(f"gram matrices entrywise equal: {'ok' if report.entrywise_equal else 'FAIL'}")
    ok = report.down_ok and report.up_ok and report.entrywise_equal
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _difference_candidates(comb: WeightedComb, max_candidates: int):
    """Translations between the patch's atoms, each with its integer translate.

    A difference x_i - x_j is kept when its norm passes 1e-9 and every
    coordinate is within a third of the patch span; it is rounded to 12
    decimals, with -0 read as 0.  The rounded values are deduplicated, sorted
    lexicographically and, past ``max_candidates``, cut to the shortest; t = 0
    leads.  Differences are grouped exactly by z_i - z_j, and only each
    group's first row and its rare twins (rows whose rounding differs from
    it) reach the float ``unique``, so every rounded value is still seen and
    each candidate carries the z_i - z_j of its first occurrence.
    """
    xs, z = comb.positions, comb.refs
    span = comb.extent.sides
    diffs = xs[:, None, :] - xs[None, :, :]
    keep = (np.linalg.norm(diffs, axis=2) > 1e-9) & np.all(np.abs(diffs) <= span / 3.0, axis=2)
    ii, jj = np.nonzero(keep)
    rounded = diffs[ii, jj]
    del diffs, keep  # freed before the pair arrays are built, which bounds peak memory
    np.round(rounded, 12, out=rounded)
    rounded += 0.0  # -0 + 0 is +0
    dz = z[ii]
    dz -= z[jj]
    del ii, jj
    label, first = _group_rows(dz)
    twins = np.nonzero((rounded != rounded[first[label]]).any(axis=1))[0]
    rows = np.union1d(first, twins)
    cands, pick = np.unique(rounded[rows], axis=0, return_index=True)
    shifts = dz[rows[pick]]
    if len(cands) > max_candidates:
        order = np.argsort(np.linalg.norm(cands, axis=1))[:max_candidates]
        cands, shifts = cands[order], shifts[order]
    return (np.concatenate([np.zeros((1, comb.dim)), cands]),
            np.concatenate([np.zeros((1, z.shape[1]), np.int64), shifts]))


def cmd_almostperiods(cfg: SchemeConfig, args) -> int:
    z = model_set(cfg.scheme, cfg.window, cfg.patch_query, budget=cfg.budget)
    if len(z) == 0:
        raise ConfigError("query holds no model-set points")
    comb = model_comb(cfg.scheme, z, np.ones(len(z)))
    cands, shifts = _difference_candidates(comb, args.max_candidates)
    eps = max(args.eps, 1e-12)  # eps 0 means exact periods only
    a_box = Box(np.zeros(cfg.d), np.ones(cfg.d))
    scan = eps_norm_almost_periods(comb, a_box, eps, cands, shifts=shifts)
    header = [f"t{i + 1}" for i in range(cfg.d)] + ["norm", "accepted"]
    scanned = scan.accepted + scan.rejected
    ts = np.array([t for t, _ in scanned]).reshape(-1, cfg.d)
    norms = np.array([v for _, v in scanned], dtype=float)
    accepted = np.repeat([1, 0], [len(scan.accepted), len(scan.rejected)])
    order = np.lexsort(ts.T[::-1])  # stable, so equal t keep accepted rows first
    _write_table(args.out, header, [*ts[order].T, norms[order], accepted[order]])
    print(f"accepted {len(scan.accepted)} of {len(cands)} candidates "
          f"({len(scan.skipped)} skipped), max gap {_fmt(scan.max_gap)}")
    return EXIT_OK


def _count(minimum: int):
    """argparse type for an integer flag that must be at least ``minimum``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value" messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cutproject",
                                     description="cut-and-project schemes and their spectra")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a scheme config file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--budget", type=int, default=None, help="override the enumeration budget")

    p = sub.add_parser("check", help="injectivity, density, and dual-pairing diagnostics")
    common(p)

    p = sub.add_parser("modelset", help="enumerate the model set over the query box")
    common(p)

    p = sub.add_parser("diffract", help="closed-form diffraction spectrum")
    common(p)
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")

    p = sub.add_parser("oracle", help="compare closed-form amplitudes against the patch oracle")
    common(p)
    p.add_argument("--radius", type=float, default=None, help="oracle patch radius")
    p.add_argument("--top", type=_count(1), default=10, help="number of strongest peaks to compare")
    p.add_argument("--k", action="append", default=None, help="explicit peak position")

    p = sub.add_parser("pdcheck", help="positive definiteness downstairs and on the lift")
    common(p)
    p.add_argument("--trials", type=_count(1), default=100)
    p.add_argument("--corrupt", action="store_true",
                   help="flip the central autocorrelation weight (expected to fail)")

    p = sub.add_parser("almostperiods", help="scan norm almost periods of the patch comb")
    common(p)
    p.add_argument("--eps", type=float, required=True,
                   help="acceptance level; 0 keeps exact periods only")
    p.add_argument("--max-candidates", type=_count(0), default=200,
                   help="keep the shortest this many nonzero translations; 0 keeps t = 0 only")
    return parser


COMMANDS = {
    "check": cmd_check,
    "modelset": cmd_modelset,
    "diffract": cmd_diffract,
    "oracle": cmd_oracle,
    "pdcheck": cmd_pdcheck,
    "almostperiods": cmd_almostperiods,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.budget is not None:
            cfg.budget = args.budget
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
