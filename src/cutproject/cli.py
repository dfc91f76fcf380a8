"""Command-line surface: scheme configs, model sets, diffraction, oracle scans.

Configs are flat key = value text files.  Numeric values accept arithmetic
expressions in which the literal ``golden`` expands to the golden ratio with
17 significant digits, so canonical irrational bases are reproducible without
symbolic algebra.  Exit codes: 0 success; 1 a check failed (a ``FAIL`` line on
stdout); 2 usage or config error; 3 out of enumeration budget or memory, with the
knobs to turn (``budget =`` / ``--budget``, ``patch_query``, ``--radius``,
``threshold``); 4 any other exception, a defect, with its traceback on stderr.
"""

from __future__ import annotations

import argparse
import ast
import functools
import operator
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .almost import _difference_candidates, eps_norm_almost_periods
from .comb import WeightedComb, autocorrelation_patch, model_comb
from .cps import CutProjectScheme, Window, internal_density_check, model_set, verify_injectivity
from .lattice import DEFAULT_BUDGET, Box, BudgetError, Lattice, _first_near, dual
from .posdef import lift_pd_crosscheck
from .spectra import (
    Separable,
    box_profile,
    diffraction,
    make_cutoff,
    oracle_amplitudes,
    spectrum_metadata_json,
    trapezoid_profile,
)
from .tables import _write_table, spectrum_to_csv

GOLDEN = 1.6180339887498949  # golden ratio to 17 significant digits

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3  # out of enumeration budget or memory
EXIT_CRASH = 4  # any other exception: a defect, reported with its traceback

RESOURCE_KNOBS = ("raise `budget =` in the config or pass --budget, or shrink the work: "
                  "a smaller `patch_query` (modelset, pdcheck, almostperiods), a smaller "
                  "--radius (oracle) or a larger `threshold` (diffract, oracle)")


class ConfigError(ValueError):
    pass


# every key resolve_config reads; any other key is a config error
CONFIG_KEYS = frozenset({
    "d", "m", "basis", "window", "profile", "profile_box", "profile_plateau", "profile_margin",
    "cutoff_plateau", "cutoff_margin", "query", "patch_query", "threshold", "seed", "budget",
    "oracle_radius", "inj_radius", "inj_tol", "density_eps", "density_radius", "density_box",
})


_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.USub: operator.neg, ast.UAdd: operator.pos}


def _operand(node):
    value = _eval_node(node)
    if not isinstance(value, (int, float)):
        raise ConfigError(f"arithmetic takes numbers only, got {value!r}")
    return value


def _eval_node(node):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body)
    if isinstance(node, ast.Constant):
        # the config language has numbers and strings, no booleans
        if isinstance(node.value, (int, float, str)) and not isinstance(node.value, bool):
            return node.value
        raise ConfigError(f"unsupported literal {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id == "golden":
            return GOLDEN
        raise ConfigError(f"unknown name {node.id!r} (only 'golden' is recognised)")
    if isinstance(node, ast.List):
        return [_eval_node(el) for el in node.elts]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
        return _OPERATORS[type(node.op)](_operand(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        return _OPERATORS[type(node.op)](_operand(node.left), _operand(node.right))
    raise ConfigError("unsupported expression")


def _parse_value(text: str):
    try:
        return _eval_node(ast.parse(text.strip(), mode="eval"))
    except ConfigError:
        raise
    except (SyntaxError, ValueError, ArithmeticError, RecursionError) as exc:
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


def _flat_box(values) -> Box:
    flat = np.asarray(values, dtype=float).reshape(-1)
    if len(flat) % 2:
        raise ValueError("box needs an even number of entries (lo, hi pairs)")
    return Box(flat[0::2], flat[1::2])


def _number(kind, minimum=None):
    """Parse an int or float; reject bools, NaN, non-integral ints and values below ``minimum``.

    Range errors are ``argparse.ArgumentTypeError``s, whose message argparse prints as is.
    """
    def parse(value):
        value = kind(value) if isinstance(value, str) else value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        if minimum is not None and not value >= minimum:  # NaN is never at least minimum
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if value != value or (kind is int and value % 1):  # inf % 1 is NaN
            raise argparse.ArgumentTypeError(f"not a valid {kind.__name__}: {value}")
        return kind(value)

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value" messages
    return parse


@dataclass
class SchemeConfig:
    """Everything a run needs, resolved from a flat config file."""

    d: int
    m: int
    scheme: CutProjectScheme
    window: Window
    profile: Separable
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
    def read(key, parse, default=None):
        """``parse(values[key])``, or ``default`` if the key is absent; errors name the key."""
        if key not in values:
            if default is None:
                raise ConfigError(f"missing required key '{key}'")
            return default
        try:
            return parse(values[key])
        except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"key '{key}': {exc}") from None

    number = _number(float)
    d, m = read("d", _number(int)), read("m", _number(int))

    def box_in(dim, name):
        """``_flat_box`` that also requires ``dim`` axes, the value of ``name``."""
        def parse(value):
            box = _flat_box(value)
            if box.dim != dim:
                raise ValueError(f"dimension {box.dim} does not match {name} = {dim}")
            return box
        return parse

    physical, internal = box_in(d, "d"), box_in(m, "m")

    def scheme_of(rows):
        lat = Lattice(rows)
        if lat.n != d + m:
            raise ValueError(f"rank {lat.n} does not match d + m = {d + m}")
        return CutProjectScheme(lat=lat, d=d, m=m)

    def cutoff_margin(value):
        margin = np.broadcast_to(np.asarray(value, dtype=float), (m,)).copy()
        make_cutoff(plateau, margin)  # the cutoff's own rule: margins positive
        return margin

    scheme = read("basis", scheme_of)
    window = read("window", lambda parts: Window([_flat_box(part) for part in parts]))
    if window.m != m:
        raise ConfigError(f"key 'window': dimension {window.m} does not match m = {m}")
    kind = read("profile", str, "box")
    if kind == "box":
        profile = read("profile_box", lambda v: box_profile(_flat_box(v)),
                       box_profile(window.parts[0]))
    elif kind == "trapezoid":
        trapezoid = read("profile_plateau", _flat_box)
        profile = read("profile_margin",
                       lambda v: trapezoid_profile(trapezoid.lo, trapezoid.hi, number(v)))
    else:
        raise ConfigError(f"key 'profile': unknown kind {kind!r}")
    if profile.m != m:
        raise ConfigError("key 'profile': dimension does not match m")
    plateau = read("cutoff_plateau", internal, window.bounding_box())
    if not all(plateau.contains_box(part) for part in window.parts):
        raise ConfigError("key 'cutoff_plateau': plateau must contain the window")
    query = read("query", physical)
    patch_query = read("patch_query", physical, query)
    config = SchemeConfig(
        d=d,
        m=m,
        scheme=scheme,
        window=window,
        profile=profile,
        cutoff_plateau=plateau,
        cutoff_margin=read("cutoff_margin", cutoff_margin, np.full(m, 0.1)),
        query=query,
        patch_query=patch_query,
        threshold=read("threshold", number, 0.01),
        seed=read("seed", _number(int, 0), 0),
        budget=read("budget", _number(int, 1), DEFAULT_BUDGET),
        oracle_radius=read("oracle_radius", number, 2000.0),
        inj_radius=read("inj_radius", number, 50.0),
        inj_tol=read("inj_tol", number, 1e-6),
        density_eps=read("density_eps", number, 0.05),
        density_radius=read("density_radius", number, 200.0),
        density_box=read("density_box", internal, window.bounding_box()),
        raw=dict(values),
    )
    unknown = sorted(set(values) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}'")
    return config


def load_config(path: str) -> SchemeConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
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


def _spectrum(cfg: SchemeConfig):
    """The diffraction spectrum over ``query``: the peaks above ``threshold``."""
    return diffraction(cfg.scheme, cfg.window, cfg.profile, cfg.query, cfg.threshold, cfg.cutoff(),
                       budget=cfg.budget)


def cmd_diffract(cfg: SchemeConfig, args) -> int:
    spectrum = _spectrum(cfg)
    spectrum_to_csv(spectrum, args.out)
    if args.out:
        meta = spectrum_metadata_json(spectrum, extra={"config": cfg.raw})
        with open(args.out + ".json", "w") as fh:
            fh.write(meta + "\n")
    return EXIT_OK


def cmd_oracle(cfg: SchemeConfig, args) -> int:
    if args.radius is not None and args.radius <= 0:
        print("oracle radius must be positive", file=sys.stderr)
        return EXIT_USAGE
    radius = args.radius if args.radius is not None else cfg.oracle_radius
    for text in args.k or []:
        if len(text.split(",")) != cfg.d:
            print(f"--k {text!r} has {len(text.split(','))} coordinates; the scheme needs d = {cfg.d}",
                  file=sys.stderr)
            return EXIT_USAGE
    spectrum = _spectrum(cfg)
    if len(spectrum.ks) == 0:
        raise ConfigError(f"no spectrum peak in 'query' clears 'threshold' = {_fmt(cfg.threshold)}")
    if args.k:
        wanted = np.array([[float(x) for x in v.split(",")] for v in args.k], dtype=float)
        idx = _first_near(spectrum.ks, wanted, 1e-6)
        if (idx == len(spectrum.ks)).any():
            k = wanted[np.argmax(idx == len(spectrum.ks))]
            print(f"k = {k.tolist()} matches no spectrum peak above the threshold", file=sys.stderr)
            return EXIT_USAGE
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


def _patch_comb(cfg: SchemeConfig, weights=np.ones) -> WeightedComb:
    """The model set in ``patch_query`` as a comb, with ``weights(n)`` on its n points."""
    z = model_set(cfg.scheme, cfg.window, cfg.patch_query, budget=cfg.budget)
    if len(z) == 0:
        raise ConfigError("query holds no model-set points")
    return model_comb(cfg.scheme, z, weights(len(z)))


def cmd_pdcheck(cfg: SchemeConfig, args) -> int:
    rng = np.random.default_rng(cfg.seed)
    comb = _patch_comb(cfg, lambda n: rng.normal(size=n) + 1j * rng.normal(size=n))
    region = Box(comb.extent.lo - 1.0, comb.extent.hi + 1.0)
    gamma = autocorrelation_patch(comb, region)
    if args.corrupt:
        idx = int(np.argmin(np.linalg.norm(gamma.positions, axis=1)))
        w = gamma.weights.copy()
        w[idx] = -w[idx]
        gamma = WeightedComb(gamma.positions, w, refs=gamma.refs, validate=False)
    bbox = cfg.window.bounding_box()
    diff_window = Window(Box(bbox.lo - bbox.hi, bbox.hi - bbox.lo))
    report = lift_pd_crosscheck(cfg.scheme, gamma, diff_window, trials=args.trials, seed=cfg.seed)
    print(f"configurations: {args.trials} trials, seed {report.seed}")
    print(f"downstairs positive semidefinite: {'ok' if report.down_ok else 'FAIL'} "
          f"(min eigenvalue {report.min_eigs_down.min():.3e})")
    print(f"lifted positive semidefinite: {'ok' if report.up_ok else 'FAIL'} "
          f"(min eigenvalue {report.min_eigs_up.min():.3e})")
    print(f"gram matrices entrywise equal: {'ok' if report.entrywise_equal else 'FAIL'}")
    ok = report.down_ok and report.up_ok and report.entrywise_equal
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_almostperiods(cfg: SchemeConfig, args) -> int:
    comb = _patch_comb(cfg)
    cands, shifts = _difference_candidates(cfg.scheme, comb, args.max_candidates)
    eps = max(args.eps, 1e-12)  # eps 0 means exact periods only
    a_box = Box(np.zeros(cfg.d), np.ones(cfg.d))
    scan = eps_norm_almost_periods(comb, a_box, eps, cands, shifts=shifts)
    header = [f"t{i + 1}" for i in range(cfg.d)] + ["norm", "accepted"]
    order = np.lexsort((~scan.accepted, *scan.ts.T[::-1]))  # equal t: accepted rows first
    order = order[~np.isnan(scan.norms[order])]  # skipped candidates are not written
    _write_table(args.out, header,
                 [*scan.ts[order].T, scan.norms[order], scan.accepted[order].astype(np.int64)])
    print(f"accepted {np.count_nonzero(scan.accepted)} of {len(cands)} candidates "
          f"({len(cands) - len(order)} skipped), max gap {_fmt(scan.max_gap)}")
    return EXIT_OK


@functools.cache  # parse_args leaves the parser unchanged, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cutproject",
                                     description="cut-and-project schemes and their spectra")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a scheme config file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=_number(int, 0), default=None, help="override the config seed")
        p.add_argument("--budget", type=_number(int, 1), default=None,
                       help="override the enumeration budget")

    p = sub.add_parser("check", help="injectivity, density, and dual-pairing diagnostics")
    common(p)

    p = sub.add_parser("modelset", help="enumerate the model set over the query box")
    common(p)

    p = sub.add_parser("diffract", help="closed-form diffraction spectrum")
    common(p)
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")

    p = sub.add_parser("oracle", help="compare closed-form amplitudes against the patch oracle")
    common(p)
    p.add_argument("--radius", type=_number(float), default=None, help="oracle patch radius")
    p.add_argument("--top", type=_number(int, 1), default=10,
                   help="number of strongest peaks to compare")
    p.add_argument("--k", action="append", default=None, help="explicit peak position")

    p = sub.add_parser("pdcheck", help="positive definiteness downstairs and on the lift")
    common(p)
    p.add_argument("--trials", type=_number(int, 1), default=100)
    p.add_argument("--corrupt", action="store_true",
                   help="flip the central autocorrelation weight (expected to fail)")

    p = sub.add_parser("almostperiods", help="scan norm almost periods of the patch comb")
    common(p)
    p.add_argument("--eps", type=_number(float, 0), required=True,
                   help="acceptance level; 0 keeps exact periods only")
    p.add_argument("--max-candidates", type=_number(int, 0), default=200,
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
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.budget is not None:
            cfg.budget = args.budget
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetError, MemoryError) as exc:
        kind = "budget error" if isinstance(exc, BudgetError) else "out of memory"
        print(f"{kind}: {str(exc) or type(exc).__name__}\n{RESOURCE_KNOBS}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
