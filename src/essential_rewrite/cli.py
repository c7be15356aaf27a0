"""Command-line interface.

Subcommands:
  reduce     run a strategy on a term and print the trace
  factorize  rearrange a recorded reduction sequence, essential steps first
  level      least level of a term and the level of each of its redexes
  check      run a property or normalization suite and report PASS/FAIL

Exit codes: 0 success / normal form, 1 usage or parse error, 2 fuel
exhausted, 3 property FAIL, 4 property INCONCLUSIVE (a budget was hit or
nothing was checked).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .engine import (
    InvalidTraceError,
    Outcome,
    PROPERTY_CHECKS,
    SUBST_INDEX_MIN_SIZE,
    SYSTEMS,
    UnsupportedPropertyError,
    check_normalization,
    check_property,
    check_subst_index,
    factorize,
    get_system,
    normalize,
    steps_to_json,
    trace_from_positions,
)
from .parallel import Flavor
from .reductions import (
    Base,
    StepKind,
    SystemId,
    least_level,
    level_json,
    redexes,  # unused here; bench/tracing.py binds it
    step_at,  # unused here; bench/tracing.py binds it
)
from .terms import (
    InvalidPositionError,
    ParseError,
    Position,
    format_position,
    parse,
    parse_position,
    show,
)

CONFIG_ENV = "ESSENTIAL_REWRITE_CONFIG"

_STRATEGIES = ("head", "lo", "weak-cbv", "ll")
_BASE_ONLY = {"beta": Base.BETA, "betav": Base.BETAV}
# the kinds of check: "exhaustive" stands for each property of PROPERTY_CHECKS
_CHECKS = {"exhaustive", "normalization", "subst-index"}

# Each option: its default (None: none, or the command's own), its least
# accepted value (None: any), its readers (subcommands and, for `check`, kinds
# of check) and, for a text option, its choices.  `check` names the options a
# property does not take, and `main` the first value below its floor, in this
# order.  Every check reads the seed, so that a rerun may pass the seed it
# used whether or not it draws samples.
_OPTIONS = {
    "size": (8, 1, _CHECKS, None),
    "system": (None, None, {"reduce", "factorize", "exhaustive", "normalization"}, _STRATEGIES),
    "flavor": (None, None, {"subst-index"}, ("cbn", "cbv")),
    "samples": (500, 0, {"subst-index"}, None),
    "fuel": (1000, 1, {"reduce", "normalization"}, None),
    "budget": (20000, 1, {"normalization"}, None),
    "depth": (64, 1, {"normalization"}, None),
    "parallel": (1, 1, {"exhaustive"}, None),
    "seed": (0, None, _CHECKS, None),
    "output": ("text", None, {"reduce", "factorize", "level", *_CHECKS}, ("text", "json")),
}
DEFAULTS = {name: default for name, (default, *_) in _OPTIONS.items() if default is not None}


class UsageError(ValueError):
    """The command line or an option value from the config file is invalid."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError on a bad command line, which exits 1 like any other
    usage error; argparse itself would exit 2, the code for exhausted fuel."""

    def error(self, message):
        raise UsageError(message)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        reader = getattr(args, "property", args.command)
        reader = "exhaustive" if reader in PROPERTY_CHECKS else reader
        reads = [name for name, (_, _, readers, _) in _OPTIONS.items() if reader in readers]
        # every subcommand but `check` takes only the options it reads
        unread = [f"--{name}" for name in _OPTIONS
                  if name not in reads and getattr(args, name, None) is not None]
        if unread:
            raise UsageError(f"check {args.property} does not take {', '.join(unread)}")
        config = _load_config()
        for name in reads:
            default, floor, _, _ = _OPTIONS[name]
            if getattr(args, name) is None:
                setattr(args, name, config.get(name, default))
            if floor is not None and getattr(args, name) < floor:
                raise UsageError(f"{name} must be at least {floor}, got {getattr(args, name)}")
        # looked up at call time, so that a handler replaced on the module
        # runs; it runs on the calling thread, as no term operation recurses
        # on the depth of a term
        return globals()[f"cmd_{args.command}"](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, InvalidTraceError, InvalidPositionError, UnsupportedPropertyError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _read_lines(path: str) -> list[str]:
    """The lines of a text file, which must be UTF-8."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    config = {}
    for line in _read_lines(path):
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if isinstance(DEFAULTS.get(key), int):
            try:
                config[key] = int(value)
            except ValueError:
                raise UsageError(
                    f"{CONFIG_ENV}: {key} must be an integer, got {value!r}") from None
        elif key == "output":
            if value not in _OPTIONS["output"][3]:
                raise UsageError(f"{CONFIG_ENV}: output must be text or json, got {value!r}")
            config[key] = value
    return config


# The parser is built on the first `main` call, not at import, and then serves
# every later call in the process: building it costs more than a short
# `reduce`.  argparse keeps nothing of one command line for the next, and
# `main` looks each subcommand's handler up by name (`cmd_<command>`).
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="essential-rewrite",
        description="Reduction strategies, factorization and property checking "
                    "for the lambda calculus.")
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_p = sub.add_parser("reduce", help="reduce a term with a strategy")
    reduce_p.add_argument("term")
    _add_options(reduce_p, "reduce")

    fact_p = sub.add_parser("factorize", help="factorize a reduction sequence file")
    fact_p.add_argument("file")
    _add_options(fact_p, "factorize")

    level_p = sub.add_parser("level", help="least level and per-redex levels")
    level_p.add_argument("term")
    _add_options(level_p, "level")

    check_p = sub.add_parser("check", help="run a property suite")
    check_p.add_argument("property",
                         choices=sorted([*PROPERTY_CHECKS, "normalization", "subst-index"]))
    _add_options(check_p, "check")

    return parser


def _add_options(p: argparse.ArgumentParser, command: str) -> None:
    """Give a subcommand each option that it or one of its kinds of check
    reads; `main` fills in those not given from the config file or DEFAULTS."""
    kinds = _CHECKS if command == "check" else {command}
    for name, (_, _, readers, choices) in _OPTIONS.items():
        if kinds.isdisjoint(readers):
            continue
        if choices is None:
            p.add_argument(f"--{name}", type=int, metavar="N" if name == "parallel" else None)
        elif name == "system" and command != "check":
            p.add_argument("--system", required=True,
                           choices=[*choices, *_BASE_ONLY] if command == "reduce" else choices)
        else:
            p.add_argument(f"--{name}", choices=choices,
                           help="default cbn" if name == "flavor" else None)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.output == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _step_line(step, text: str) -> str:
    extra = f" level={step.level}" if step.level is not None else ""
    return f"  {step.kind.value} @ {format_position(step.position)}{extra} -> {text}"


def cmd_reduce(args) -> int:
    # plain beta / beta-value reduction fires the first redex in preorder
    trace, outcome = normalize(parse(args.term),
                               _BASE_ONLY.get(args.system) or get_system(args.system), args.fuel)
    start, *texts = trace.texts()
    if args.output == "json":
        _write_reduce_json(sys.stdout.write, start, args.system, trace.kind,
                           zip((pos for pos, _ in trace.fired), trace.levels(), texts), outcome)
    else:
        lines = [start, *map(_step_line, trace.records(), texts), f"outcome: {outcome.value}"]
        print("\n".join(lines))
    return 2 if outcome is Outcome.FUEL_EXHAUSTED else 0


def _write_reduce_json(write, start: str, system: str, kind: StepKind, steps,
                       outcome: Outcome) -> None:
    """Write the `reduce` payload as `print(json.dumps(payload, indent=2))`
    does: start, system, steps and outcome, each step (position, level,
    reduct text) with the keys of `Step.to_json` and then "term".  The
    layout is written out here, and no scalar goes through `json.dumps`,
    which with `indent` runs its pure-Python encoder.  A position is tags
    joined by dots and a level an int or "inf", which need no escaping,
    and every other string is quoted by `encode_basestring_ascii`, the C
    function `json.dumps` calls for a string.  Each step is written as it
    is encoded, so no copy of the whole trace is built."""
    quote = encode_basestring_ascii
    kind_line = f',\n      "kind": {quote(kind.value)},\n'
    write(f'{{\n  "start": {quote(start)},\n  "system": {quote(system)},\n  "steps": [')
    sep = "\n"
    for pos, level, text in steps:
        level_line = "" if level is None else f'      "level": {level},\n'
        write(f'{sep}    {{\n      "position": "{".".join(pos)}"{kind_line}{level_line}'
              f'      "term": {quote(text)}\n    }}')
        sep = ",\n"
    write("]" if sep == "\n" else "\n  ]")
    write(f',\n  "outcome": {quote(outcome.value)}\n}}\n')


def _read_sequence_file(path: str) -> tuple:
    """Sequence files: first line a term, then one `pos <path>` line per step,
    with <path> a dot-separated string of L|R|B (omitted or `root` for the
    root redex)."""
    raw = [line.rstrip("\n") for line in _read_lines(path)]
    lines = [(i + 1, line.strip()) for i, line in enumerate(raw)
             if line.strip() and not line.strip().startswith("#")]
    if not lines:
        raise InvalidTraceError("sequence file is empty")
    first_no, term_text = lines[0]
    try:
        term = parse(term_text)
    except ParseError as exc:
        raise InvalidTraceError(f"line {first_no}: {exc}") from exc
    positions: list[Position] = []
    line_numbers: list[int] = []
    for no, line in lines[1:]:
        tokens = line.split()
        if tokens[0] != "pos" or len(tokens) > 2:
            raise InvalidTraceError(f"line {no}: expected 'pos <path>'")
        try:
            positions.append(parse_position(tokens[1] if len(tokens) == 2 else ""))
        except InvalidPositionError as exc:
            raise InvalidTraceError(f"line {no}: {exc}") from exc
        line_numbers.append(no)
    return term, positions, line_numbers


def cmd_factorize(args) -> int:
    term, positions, line_numbers = _read_sequence_file(args.file)
    system = get_system(args.system)
    try:
        trace = trace_from_positions(term, positions, system)
    except InvalidTraceError as exc:
        if exc.index is not None:
            raise InvalidTraceError(f"line {line_numbers[exc.index]}: {exc}") from exc
        raise
    result = factorize(trace, system)
    payload = result.to_json()

    def step_lines(part: str) -> list[str]:
        steps = zip(getattr(result, part).steps, payload[part]["steps"])
        return [_step_line(s, data["term"]) for (s, _), data in steps] or ["  (empty)"]

    lines = [f"input: {payload['essential']['start']} ({len(trace.steps)} steps)",
             "essential prefix:", *step_lines("essential"),
             "inessential suffix:", *step_lines("inessential")]
    _emit(args, payload, lines)
    return 0


def cmd_level(args) -> int:
    term = parse(args.term)
    level = least_level(term)
    ll = SYSTEMS[SystemId.LEAST_LEVEL]
    steps = sorted(ll.essential_steps(term) + ll.inessential_steps(term),
                   key=lambda step: step[0].position)
    text = show(term)
    texts = [show(u) for _, u in steps]
    payload = {
        "term": text,
        "least_level": level_json(level),
        "steps": steps_to_json([s for s, _ in steps], texts),
    }
    lines = [f"least level of {text}: {level}"]
    for (s, _), reduct in zip(steps, texts):
        lines.append(f"  level {s.level} @ {format_position(s.position)} [{s.kind.value}] "
                     f"-> {reduct}")
    _emit(args, payload, lines)
    return 0


def cmd_check(args) -> int:
    if args.property == "subst-index":
        if args.size < SUBST_INDEX_MIN_SIZE:
            raise UsageError(f"subst-index needs size at least {SUBST_INDEX_MIN_SIZE}, "
                             f"got {args.size}")
        report = check_subst_index(Flavor(args.flavor or "cbn"), samples=args.samples,
                                   seed=args.seed, max_size=args.size)
    else:
        if not args.system:
            raise UsageError("this property needs --system")
        system = SYSTEMS[SystemId(args.system)]
        if args.property == "normalization":
            report = check_normalization(system, size_bound=args.size,
                                         fuel=args.fuel, node_budget=args.budget,
                                         depth_budget=args.depth)
        else:
            report = check_property(args.property, system, size_bound=args.size,
                                    workers=args.parallel)
    payload = report.to_json()
    lines = [f"{report.property} [{report.system}] size<={report.size_bound}: "
             f"{report.result} ({report.checked_count} checked)"]
    if report.counterexample:
        lines.append(f"counterexample: {report.counterexample}")
    _emit(args, payload, lines)
    if report.result == "PASS":
        return 0
    return 3 if report.result == "FAIL" else 4


if __name__ == "__main__":
    sys.exit(main())
