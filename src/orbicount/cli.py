"""Command-line front end.

Subcommands: count, classify, constant, local-factor, fit, zeta.
CSV schema for counts: ``B,n_rational,n_campana,n_darmon``.  All JSON output
uses lower_snake_case keys.  Exit codes: 0 success, 2 usage or domain error,
3 resource cap exceeded (the enumeration budget, or an allocation that fails).

An optional ``--config path`` file holds ``key=value`` lines (blank and ``#``
lines skipped), parsed as flags of the subcommand put before the typed ones.
A key is a long-flag name, written with ``-`` or ``_``; a value is checked as
the flag's value is; a boolean flag takes ``1``, ``true`` or ``yes``; a typed
flag wins, abbreviated too; a key the subcommand has no flag for is ignored;
and a required flag (``zeta --bound``) may come from the file.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import arith, constants, enumeration, fitting, geometry, localfactors
from .errors import BudgetExceededError, DomainError
from .orbifold import OrbifoldModel, PlaceSet, blowup_p2, projective_space

__all__ = ["main"]


def _parse_primes(text: str, flag: str) -> List[int]:
    """A comma list of primes, refused unless each entry is an integer (the
    place set then checks that each is prime)."""
    text = text.strip()
    if not text:
        return []
    try:
        return [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"{flag} must be a comma list of primes, got {text!r}") from exc


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse number {text!r}") from exc


def _parse_finite(text, flag: str) -> float:
    """A float flag value, refused unless it parses and is finite (JSON has
    no NaN or Infinity)."""
    refused = DomainError(f"{flag} must be a finite number, got {text!r}")
    try:
        value = float(text)
    except ValueError as exc:
        raise refused from exc
    if not math.isfinite(value):
        raise refused
    return value


def _build_model(args) -> OrbifoldModel:
    if args.model == "p1":
        return projective_space(1, args.m)
    if args.model == "pn":
        try:
            return projective_space(args.n, args.m)
        except OverflowError as exc:  # (0,) * n past the index range
            raise DomainError(f"--n {args.n} is too large") from exc
    if args.model == "blowup":
        return blowup_p2(args.m1, args.m2)
    raise DomainError(f"unknown model {args.model!r}")


def _build_places(args) -> PlaceSet:
    text = getattr(args, "s_primes", None)
    if text is None:
        return PlaceSet.of(_parse_primes(args.s, "--s"))
    return PlaceSet.of(_parse_primes(text, "--s-primes"))


def _grid(args) -> tuple:
    """Returns (bounds ascending, labels)."""
    spec = args.grid
    if spec.startswith("geometric:"):
        k = spec.split(":", 1)[1].strip()
        if not k.isdigit() or int(k) < 1:
            raise DomainError(f"--grid {spec}: a geometric grid needs an integer k >= 1")
        k = int(k)
        if args.bmax is None:
            raise DomainError("geometric grid requires --bmax")
        lo = _parse_fraction(args.bmin)
        if lo <= 0:
            raise DomainError("--bmin must be positive")
        try:
            lo, hi = float(lo), float(_parse_fraction(args.bmax))
            if hi < lo:
                raise DomainError("--bmax below --bmin")
            if k == 1:
                vals = [int(round(hi))]
            else:
                ratio = (hi / lo) ** (1.0 / (k - 1))
                vals = [int(round(lo * ratio**i)) for i in range(k)]
        except (OverflowError, ZeroDivisionError) as exc:  # past the float range
            raise DomainError("geometric grid out of float range: use --grid a,b,...") from exc
        out = []
        for v in vals:
            if not out or v > out[-1]:
                out.append(max(v, 1))
        return [Fraction(v) for v in out], [str(v) for v in out]
    entries = [e.strip() for e in spec.split(",") if e.strip()]
    if not entries:
        raise DomainError("empty bound grid")
    pairs = sorted({(_parse_fraction(e), e) for e in entries})
    seen = set()
    bounds, labels = [], []
    for b, label in pairs:
        if b in seen:
            continue
        seen.add(b)
        bounds.append(b)
        labels.append(label)
    return bounds, labels


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _check_digits(model: OrbifoldModel, bounds: Sequence[Fraction]) -> None:
    """Refuse, before any counting, a count of projective n-space that could
    pass Python's limit on the digits of a printed integer: the count is at
    most B (2B + 1)^n, of at most n log10(2B + 1) + log10(B) + 1 digits."""
    # no limit to check before Python 3.10.7, which added it
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else 0
    Bint = math.floor(bounds[-1])
    if model.name not in ("p1", "pn") or not limit or Bint < 1:
        return
    digits = model.dimension * math.log10(2 * Bint + 1) + math.log10(Bint) + 1
    if digits > limit:
        raise DomainError(
            f"a count at B = {Bint} may have up to {int(digits)} digits, past"
            f" the {limit}-digit limit on printing an integer"
        )


def _cmd_count(args) -> int:
    model = _build_model(args)
    S = _build_places(args)
    bounds, labels = _grid(args)
    _check_digits(model, bounds)
    records = enumeration.count_series(model, S, bounds, args.mode, args.budget, labels)
    if args.dump:
        if len(bounds) != 1:
            raise DomainError("--dump requires a single-point grid")
        mode = "darmon" if args.mode == "all" else args.mode  # all: the Darmon points
        with open(args.dump, "w") as fh:
            enumeration.dump_points(model, S, bounds[0], mode, fh,
                                    records[0].counts[mode], args.budget)
    if args.format == "json":
        payload = {
            "model": model.name,
            "params": dict(model.params),
            "s_primes": list(S.finite_primes),
            "mode": args.mode,
            "records": [
                {"b": rec.label,
                 **{f"n_{md}": rec.counts.get(md) for md in enumeration.MODES}}
                for rec in records
            ],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        buf = io.StringIO()
        enumeration.write_series_csv(records, buf)
        _emit(args, buf.getvalue())
    return 0


def _cmd_classify(args) -> int:
    model = _build_model(args)
    S = _build_places(args)
    point = geometry.parse_point(model, args.point)
    heights: Dict[str, object] = {}
    gh = geometry.global_height(point, model)
    heights["inf"] = geometry.local_height(point, model, geometry.ARCH).value
    mults: Dict[str, Dict[str, int]] = {}
    for p in geometry.relevant_primes(point, model):
        lh = geometry.local_height(point, model, p)
        heights[str(p)] = {"value": lh.value, "exponent": str(lh.exponent)}
        mults[str(p)] = geometry.multiplicities(point, model, p)
    if model.name == "blowup":
        x0, x1, x2 = point.coords
        point_text = f"{Fraction(x1, x0)},{Fraction(x2, x0)}"
    else:
        point_text = ":".join(str(c) for c in point.coords)
    payload = {
        "model": model.name,
        "params": dict(model.params),
        "s_primes": list(S.finite_primes),
        "point": point_text,
        "global_height": gh.value,
        "heights": heights,
        "multiplicities": mults,
        "is_darmon": geometry.is_darmon(point, model, S),
        "is_campana": geometry.is_campana(point, model, S),
    }
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_constant(args) -> int:
    model = _build_model(args)
    S = _build_places(args)
    breakdown = constants.leading_constant(
        model, S, prime_cutoff=args.p0, method=args.method
    )
    payload = {
        "model": model.name,
        "params": dict(model.params),
        "s_primes": list(S.finite_primes),
        "a": float(breakdown.a),
        "a_exact": str(breakdown.a),
        "b": breakdown.b,
        "residue_factors": [
            {"component": label, "value": float(v), "exact": str(v)}
            for label, v in breakdown.residue_factors
        ],
        "finite_product": breakdown.finite_product,
        "tail_bound": breakdown.tail_bound,
        "archimedean": breakdown.archimedean,
        "s_factors": [{"p": p, "value": v} for p, v in breakdown.s_factors],
        "total": breakdown.total,
        "count_coefficient": breakdown.count_coefficient,
    }
    if args.paper_values:
        payload["paper_values"] = _paper_values(model, S, args.p0)
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


def _paper_values(model: OrbifoldModel, S: PlaceSet, p0: int) -> Dict[str, object]:
    """Published closed-form candidates, reported for side-by-side comparison."""
    if model.name in ("p1", "pn"):
        m = model.params["m"]
        ref = constants.p1_reference_constants(m, S)
        out: Dict[str, object] = {
            "count_coefficient": ref.count_coefficient,
            "residue": ref.residue,
            "residue_times_m": ref.residue_times_m,
        }
        if m >= 2:
            camp, camp_tail = constants.p1_campana_constant(m, S, p0)
            out["campana_coefficient"] = camp
            out["campana_tail_bound"] = camp_tail
        return out
    m1, m2 = model.params["m1"], model.params["m2"]
    value, tail = constants.blowup_reference_constant(m1, m2, p0)
    return {
        "constant": value,
        "tail_bound": tail,
        "archimedean_reference": constants.blowup_archimedean_reference(m1, m2),
    }


def _cmd_local_factor(args) -> int:
    model = _build_model(args)
    if args.s_value is None:
        raise DomainError("local-factor requires --s")
    if not arith.is_prime(args.p):
        raise DomainError(f"--p must be a prime, got {args.p}")
    s = _parse_finite(args.s_value, "--s")
    if model.name == "p1":
        closed = localfactors.p1_factor(args.p, model.params["m"], s, in_S=args.in_s)
    elif model.name == "blowup":
        closed = localfactors.blowup_factor(
            args.p, model.params["m1"], model.params["m2"], s, in_S=args.in_s
        )
    denef = localfactors.denef_factor(model, args.p, s, in_S=args.in_s)
    if model.name == "pn":  # the stratum sum is its closed form
        closed = denef
    oracle = localfactors.shell_sum_oracle(model, args.p, s, args.depth, in_S=args.in_s)
    payload = {
        "model": model.name,
        "params": dict(model.params),
        "p": args.p,
        "s": s,
        "in_s": bool(args.in_s),
        "closed_form": float(closed),
        "denef": float(denef),
        "oracle": float(oracle.value),
        "oracle_bound": float(oracle.bound),
    }
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_fit(args) -> int:
    with open(args.csv) as fh:
        rows = enumeration.read_counts_csv(fh)
    column = f"n_{args.column}"
    pts = [(row["bound"], row[column]) for row in rows if row[column] is not None]
    window = None
    if args.window:
        try:
            lo, hi = (float(_parse_fraction(t)) for t in args.window.split(","))
        except OverflowError as exc:
            raise DomainError(f"--window {args.window} is outside the float range") from exc
        window = (lo, hi)
    result = fitting.fit_counts(pts, _parse_finite(args.a, "--a"), args.b, window)
    payload = {
        "c_hat": result.c_hat,
        "coefficient": result.coefficient,
        "a": result.a_used,
        "b": result.b_used,
        "residual": result.residual,
        "window": [result.window[0], result.window[1]],
        "n_points": result.n_points,
    }
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_zeta(args) -> int:
    model = _build_model(args)
    S = _build_places(args)
    bound = _parse_fraction(args.bound)
    if args.probe:
        s_values = [_parse_finite(t, "--probe") for t in args.probe.split(",")]
        probe = fitting.residue_probe(model, S, s_values, bound, args.mode)
        payload = {
            "model": model.name,
            "params": dict(model.params),
            "mode": args.mode,
            "bound": float(bound),
            "probe": [{"s": s, "value": v} for s, v in probe],
        }
    else:
        if args.s_value is None:
            raise DomainError("zeta requires --s (or --probe)")
        s = _parse_finite(args.s_value, "--s")
        z = fitting.zeta_partial_sum(model, S, s, bound, args.mode)
        payload = {
            "model": model.name,
            "params": dict(model.params),
            "mode": z.mode,
            "s": z.s,
            "bound": z.bound,
            "value": z.value,
        }
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# parser assembly
# --------------------------------------------------------------------------


def _add_model_flags(sub, s_is_variable=False):
    """Model/weight flags.  --s names the finite primes of S on the counting
    subcommands; on local-factor and zeta it is the real variable s, and
    zeta takes the place set as --s-primes."""
    sub.add_argument("--model", choices=("p1", "pn", "blowup"), default="p1")
    sub.add_argument("--n", type=int, default=2, help="dimension for model pn")
    sub.add_argument("--m", type=int, default=1, help="weight for p1/pn")
    sub.add_argument("--m1", type=int, default=1, help="first blow-up weight")
    sub.add_argument("--m2", type=int, default=1, help="second blow-up weight")
    if s_is_variable:
        sub.add_argument("--s", dest="s_value", default=None, help="the variable s")
    else:
        sub.add_argument("--s", default="", help="finite primes of S, comma separated")
    sub.add_argument("--config", default=None, help="key=value defaults file")
    sub.add_argument("--output", default=None, help="write output to this path")


@functools.cache
def _build_parser() -> tuple:
    """Returns (the parser, its subcommand parsers by name), built on the
    first call (about 2 ms of ``add_argument`` calls) and reused after it:
    a parse reads the parsers and never changes them."""
    parser = argparse.ArgumentParser(
        prog="orbicount",
        description="bounded-height point counts and leading constants "
        "on the built-in vector-group compactifications",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("count", help="enumerate counts over a grid of bounds")
    _add_model_flags(c)
    c.add_argument("--bmax", default=None, help="largest bound (for geometric grids)")
    c.add_argument("--bmin", default="10", help="smallest bound for geometric grids")
    c.add_argument(
        "--grid",
        default="geometric:10",
        help="'geometric:k' or an explicit comma list of bounds",
    )
    c.add_argument(
        "--mode", choices=("darmon", "campana", "rational", "all"), default="all"
    )
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--budget", type=int, default=enumeration.DEFAULT_BUDGET)
    c.add_argument("--dump", default=None, help="write the points to this file (debug);"
                   " --mode all writes the Darmon points")
    c.set_defaults(func=_cmd_count)

    cl = subs.add_parser("classify", help="diagnose a single point")
    _add_model_flags(cl)
    cl.add_argument("point", help="p/q, x0:x1:...:xn, or u,w")
    cl.set_defaults(func=_cmd_classify)

    co = subs.add_parser("constant", help="assembled leading constant")
    _add_model_flags(co)
    co.add_argument("--p0", type=int, default=constants.DEFAULT_PRIME_CUTOFF)
    co.add_argument("--method", choices=("exact", "truncated"), default="exact")
    co.add_argument(
        "--paper-values",
        action="store_true",
        help="include published closed-form reference values",
    )
    co.set_defaults(func=_cmd_constant)

    lf = subs.add_parser("local-factor", help="local factor with oracle comparison")
    _add_model_flags(lf, s_is_variable=True)
    lf.add_argument("--p", type=int, required=True)
    lf.add_argument("--in-s", dest="in_s", action="store_true")
    lf.add_argument("--depth", type=int, default=60)
    lf.set_defaults(func=_cmd_local_factor)

    f = subs.add_parser("fit", help="fit a count CSV against kappa B^a (log B)^(b-1)")
    f.add_argument("csv", help="CSV produced by the count subcommand")
    f.add_argument("--a", required=True, type=float)
    f.add_argument("--b", required=True, type=int)
    f.add_argument(
        "--column", choices=("darmon", "campana", "rational"), default="darmon"
    )
    f.add_argument("--window", default=None, help="lo,hi bound window")
    f.add_argument("--config", default=None)
    f.add_argument("--output", default=None)
    f.set_defaults(func=_cmd_fit)

    z = subs.add_parser("zeta", help="height-zeta partial sums / residue probe")
    _add_model_flags(z, s_is_variable=True)
    z.add_argument("--s-primes", default="", help="finite primes of S, comma separated")
    z.add_argument("--bound", required=True)
    z.add_argument(
        "--mode", choices=("darmon", "campana", "rational"), default="darmon"
    )
    z.add_argument("--probe", default=None, help="comma list of s values")
    z.set_defaults(func=_cmd_zeta)

    return parser, subs.choices


# Finds the --config file, abbreviated flag too, before the one full parse;
# argparse reads it only from a token that starts with "--c".
_CONFIG_FINDER = argparse.ArgumentParser(prog="orbicount", add_help=False)
_CONFIG_FINDER.add_argument("--config")


def _config_argv(commands: dict, argv: List[str]) -> List[str]:
    """``argv`` with its ``--config`` lines put in as flags right after the
    subcommand: one parse checks them like typed flags, and typed ones win."""
    if not any(token.startswith("--c") for token in argv):
        return argv
    path = _CONFIG_FINDER.parse_known_args(argv)[0].config
    if not path or argv[0] not in commands:
        return argv
    # argparse offers no public lookup of a parser's flags by option string
    flags = commands[argv[0]]._option_string_actions
    tokens = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"bad config line: {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            flag = "--" + key.replace("_", "-")
            action = flags.get(flag)
            if action is None:  # not a flag of this subcommand
                continue
            if action.nargs != 0:
                tokens.append(f"{flag}={value}")
            elif value.lower() in ("1", "true", "yes"):
                tokens.append(flag)
    return argv[:1] + tokens + argv[1:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_config_argv(commands, argv))
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 3
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
