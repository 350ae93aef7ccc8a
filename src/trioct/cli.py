"""Command-line front end.

Subcommands: seq (scalar terms), oct (lifted octonion terms), roots
(characteristic-cubic data), genfunc (generating-function numerator and
denominator), sum (octonion prefix sums) and verify (the identity suite).
Output is deterministic for a given invocation.

Exit codes: 0 success, 1 usage or out-of-regime error, 2 when verify
reports at least one failing check.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

# the tables need only these two layers; the other commands import theirs when run
from .scalars import RegimeError, VariantError, format_scalar, parse_exact
from .sequences import PRESET_NAMES, RecurrenceParams, check_size_cap, preset_lookup, sums, terms


class CliError(Exception):
    """Usage or input error; rendered as one line on stderr, exit 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # read '-1/3' as a value, like '-1' and '-0.5', not as an unknown option
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


_CONFIG_KEYS = ("r", "s", "t", "v0", "v1", "v2")


def _add_param_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", help="named parameter set: " + ", ".join(PRESET_NAMES))
    parser.add_argument("--config", help="path to a 'key = value' parameter file")
    for key in _CONFIG_KEYS:
        parser.add_argument(f"--{key}", help="explicit parameter (integer or p/q)")


# the subcommands that read one parameter set; the tables also take --n and --format
_FAMILY_COMMANDS = {
    "seq": "emit scalar sequence terms",
    "oct": "emit lifted octonion terms",
    "roots": "print characteristic-cubic root data",
    "genfunc": "print the generating function",
    "sum": "emit octonion prefix sums",
}
_TABLE_COMMANDS = ("seq", "oct", "sum")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trioct", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary in _FAMILY_COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        _add_param_source(p)
        if name in _TABLE_COMMANDS:
            p.add_argument("--n", required=True, help="index A or inclusive range A..B")
            p.add_argument("--format", choices=("csv", "jsonl", "text"), default="csv")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("verify", help="run the identity-verification suite")
    p.add_argument("--preset", default="all", help="'all' or one preset name")
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--m-max", type=int, default=20)
    p.add_argument("--random-sets", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", choices=("json", "text"), default="json")
    p.add_argument("--out", help="write the report to this path instead of stdout")

    return parser


def _table_range(text: str, params: RecurrenceParams, width: int) -> tuple[int, int]:
    """--n as (lo, hi); RegimeError when rows of `width` terms would pass the size cap."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise CliError(f"malformed range {text!r}; expected A or A..B") from None
    if a < 0 or b < a:
        raise CliError(f"range {text!r} must be nonnegative and nondecreasing")
    if b > sys.maxsize:
        raise CliError(f"range {text!r} goes past the largest supported index, {sys.maxsize}")
    # the last row reads term(hi + width - 1), its largest
    check_size_cap(params, b + width - 1)
    return a, b


def _params_from_config(path: str) -> RecurrenceParams:
    values: dict[str, int | Fraction] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config {path!r}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or key not in _CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: expected 'key = value' with key in {_CONFIG_KEYS}")
        try:
            values[key] = parse_exact(value)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from None
    missing = [k for k in _CONFIG_KEYS if k not in values]
    if missing:
        raise CliError(f"config {path!r} is missing keys: {', '.join(missing)}")
    return _make_params([values[k] for k in _CONFIG_KEYS])


def _make_params(values: list[int | Fraction]) -> RecurrenceParams:
    # mixed integer/rational inputs widen to the rational variant
    if any(isinstance(v, Fraction) for v in values):
        values = [Fraction(v) for v in values]
    return RecurrenceParams(*values)


def _resolve_params(args: argparse.Namespace) -> RecurrenceParams:
    explicit = [getattr(args, key) for key in _CONFIG_KEYS]
    sources = sum((args.preset is not None, args.config is not None, any(v is not None for v in explicit)))
    if sources != 1:
        raise CliError("supply exactly one parameter source: --preset, --config, or all of --r..--v2")
    if args.preset is not None:
        return preset_lookup(args.preset.replace("-", "_"))
    if args.config is not None:
        return _params_from_config(args.config)
    if any(v is None for v in explicit):
        raise CliError("explicit parameters need all six of --r --s --t --v0 --v1 --v2")
    return _make_params([parse_exact(v) for v in explicit])


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


@contextmanager
def _exact_digits() -> Iterator[None]:
    # output rows print exact terms of any length; inputs keep the default limit
    if not hasattr(sys, "set_int_max_str_digits"):  # a Python without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_table(args: argparse.Namespace) -> int:
    # seq prints the terms, oct the lifts O(n), sum the prefix sums O(0) + ... + O(n)
    params = _resolve_params(args)
    # a seq row is one value, an oct or sum row eight components
    seq = args.command == "seq"
    width = 1 if seq else 8
    lo, hi = _table_range(args.n, params, width)
    with _exact_digits():
        if args.command == "sum":
            # component l of row n is S(n+1+l) - S(l), S(k) = term(0) + ... + term(k-1):
            # S(lo+1 .. hi+8) from the jump to lo + 1, S(0 .. 7) from the start
            head = list(islice(sums(params), 8))
            tail = list(islice(sums(params, start=lo + 1), hi - lo + 8))
            rows = [
                (n, [format_scalar(tail[n - lo + l] - head[l]) for l in range(8)])
                for n in range(lo, hi + 1)
            ]
        else:
            # row n is terms n .. n + width - 1, read from the jump to lo and formatted once
            values = [format_scalar(v) for v in islice(terms(params, start=lo), hi - lo + width)]
            rows = [(n, values[n - lo : n - lo + width]) for n in range(lo, hi + 1)]
    if args.format == "csv":
        header = "n,value" if seq else "n," + ",".join(f"e{l}" for l in range(8))
        text = header + "\n" + "".join(f"{n}," + ",".join(comps) + "\n" for n, comps in rows)
    elif args.format == "jsonl":
        import json

        key = "value" if seq else "components"
        text = "".join(
            json.dumps({"n": n, key: comps[0] if seq else list(comps)}) + "\n" for n, comps in rows
        )
    else:
        text = "".join(
            f"{n}: " + (comps[0] if seq else f"({', '.join(comps)})") + "\n" for n, comps in rows
        )
    _emit(args, text)
    return 0


def _cmd_roots(args: argparse.Namespace) -> int:
    from .cubic import cubic_roots

    params = _resolve_params(args)
    roots = cubic_roots(params)
    lines = [
        f"alpha = {roots.alpha:.17g}",
        f"omega1 = {format_scalar(roots.omega1)}",
        f"omega2 = {format_scalar(roots.omega2)}",
        f"discriminant = {roots.discriminant:.17g}",
        f"weight_alpha = {format_scalar(roots.weight_alpha)}",
        f"weight_omega1 = {format_scalar(roots.weight_omega1)}",
        f"weight_omega2 = {format_scalar(roots.weight_omega2)}",
    ]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_genfunc(args: argparse.Namespace) -> int:
    from .genfunc import build_gf, format_polynomial, gf_numerator
    from .octseq import OctSequenceContext

    ctx = OctSequenceContext(_resolve_params(args))
    numerator = gf_numerator(ctx)
    gf = build_gf(ctx)
    lines = [
        f"e{slot}: {format_polynomial(numerator.slot_coefficients(slot))}"
        for slot in range(8)
    ]
    lines.append(f"denominator: {format_polynomial(gf.denom_coeffs)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import SuiteConfig, run_suite

    presets = PRESET_NAMES if args.preset == "all" else (args.preset.replace("-", "_"),)
    config = SuiteConfig(
        presets=presets,
        random_sets=args.random_sets,
        n_max=args.n_max,
        m_max=args.m_max,
        seed=args.seed,
    )
    report = run_suite(config)
    _emit(args, report.to_json() if args.report == "json" else report.to_text())
    return 2 if report.total_failures else 0


_COMMANDS = {
    "seq": _cmd_table,
    "oct": _cmd_table,
    "roots": _cmd_roots,
    "genfunc": _cmd_genfunc,
    "sum": _cmd_table,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (CliError, RegimeError, VariantError, ValueError) as exc:
        print(f"trioct: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
