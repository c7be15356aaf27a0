"""Command-line behaviour: exit codes, output formats, reproducibility."""

import argparse
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

from conftest import OMEGA, eager_run, terms_up_to
from essential_rewrite import cli, engine, reductions, terms
from essential_rewrite.cli import main
from essential_rewrite.engine import (
    SYSTEMS,
    Outcome,
    Trace,
    factorize,
    normalize,
    trace_from_positions,
)
from essential_rewrite.reductions import Base, Step, StepKind, SystemId
from essential_rewrite.terms import is_closed, is_locally_closed, parse, show
from test_terms import HINT_COLLISIONS


# the properties checked over every term up to a size
EXHAUSTIVE = ["determinism", "diamond", "persistence", "fullness", "decomposition", "merge",
              "split", "indexed-split", "ll-monotone", "ll-invariant"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def show_calls(monkeypatch):
    """Counts the calls to `show` by the CLI and by the traces it prints."""
    calls = []

    def counting_show(t):
        calls.append(t)
        return show(t)

    monkeypatch.setattr(cli, "show", counting_show)
    monkeypatch.setattr(engine, "show", counting_show)
    return calls


class TestReduce:
    def test_head_single_step(self, capsys):
        code, out, _ = run(capsys, "reduce", r"(\z.z) (x ((\z.z) (\z.z)))",
                           "--system", "head")
        assert code == 0
        assert "essential @ root" in out
        assert out.count("->") == 1
        assert "essential-normal" in out

    def test_normal_form_zero_steps(self, capsys):
        code, out, _ = run(capsys, "reduce", r"(\x.x)", "--system", "lo")
        assert code == 0
        assert "outcome: normal-form" in out and "->" not in out

    def test_divergence_exits_2(self, capsys):
        code, out, _ = run(capsys, "reduce", r"(\x.x x) (\x.x x)",
                           "--system", "lo", "--fuel", "10")
        assert code == 2
        assert "fuel-exhausted" in out

    def test_parse_error_exits_1(self, capsys):
        code, _, err = run(capsys, "reduce", "(x", "--system", "head")
        assert code == 1
        assert "byte" in err

    def test_plain_beta_strategy(self, capsys):
        code, out, _ = run(capsys, "reduce", r"(\x.y) ((\z.z) (\z.z))",
                           "--system", "beta")
        assert code == 0
        assert "plain @ root -> y" in out

    def test_betav_respects_values(self, capsys):
        code, out, _ = run(capsys, "reduce", r"(\x.x) (y y)", "--system", "betav")
        assert code == 0
        assert "outcome: normal-form" in out

    def test_ll_steps_carry_levels(self, capsys):
        code, out, _ = run(capsys, "reduce", r"x ((\z.z) y)", "--system", "ll")
        assert code == 0
        assert "level=1" in out
        assert "  essential @ R level=1 -> x y" in out.splitlines()
        code, out, _ = run(capsys, "reduce", r"x ((\z.z) y)", "--system", "ll",
                           "--output", "json")
        assert code == 0
        assert json.loads(out)["steps"] == [
            {"position": "R", "kind": "essential", "level": 1, "term": "x y"}]

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "reduce", r"(\z.z) ((\z.z) (\z.z))",
                           "--system", "head", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["outcome"] == "normal-form"
        assert [s["position"] for s in data["steps"]] == ["", ""]

    @pytest.mark.parametrize("system", ["lo", "beta"])
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_prints_each_step_without_show(self, capsys, show_calls, system, output):
        code, out, _ = run(capsys, "reduce", r"(\f.\x.f (f x)) (\y.y) z", "--system", system,
                           "--output", output)
        assert code == 0 and show_calls == []
        if output == "json":
            data = json.loads(out)
            texts = [data["start"]] + [step["term"] for step in data["steps"]]
        else:
            lines = out.splitlines()
            texts = [lines[0]] + [line.split(" -> ")[1] for line in lines[1:-1]]
        assert texts == [r"(\f.\x.f (f x)) (\y.y) z", r"(\x.(\y.y) ((\y.y) x)) z",
                         r"(\y.y) ((\y.y) z)", r"(\y.y) z", "z"]

    def test_redex_20000_deep(self, capsys):
        depth = 20_000
        code, out, _ = run(capsys, "reduce", "x (" * depth + r"(\y.y) z" + ")" * depth,
                           "--system", "lo", "--output", "json")
        data = json.loads(out)
        assert code == 0 and data["outcome"] == "normal-form"
        [step] = data["steps"]
        assert step["position"] == ".".join(["R"] * depth)
        assert step["term"] == "x (" * (depth - 1) + "x z" + ")" * (depth - 1)


# the terms with free names whose steps TestShowSteps (test_terms.py) prints
SHOW_STEPS_OPEN_TERMS = [r"x (\x.(\y.y) x)", r"\x'.x ((\y.y) x')", r"\x'.(\x.x') x",
                         r"x ((\y.y) z)", r"(\y.y) (\z.z) w", r"(\y.y) z x", r"\v.(\y.y) z",
                         r"\v.x ((\y.y) z)"]
# steps that erase the free name w below a binder named like a free name of
# the term, whose name the printer therefore cannot keep unseen
ERASING_TERMS = [r"x (\x.(\y.x) w)", r"x (\x.x ((\y.x) w))"]


class TestReduceSplices:
    """`reduce` prints each reduct of the walk's step stream spliced into
    the text before it; where it cannot splice, it asks the stream for the
    whole term and renders that."""

    TERMS = ([show(t) for t in HINT_COLLISIONS if is_locally_closed(t)] + SHOW_STEPS_OPEN_TERMS
             + ERASING_TERMS)

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_every_step_is_show_of_the_run_root(self, capsys, monkeypatch, output):
        asked = []
        root = reductions.StepStream.root

        def counting_root(stream):
            asked.append(stream)
            return root(stream)

        monkeypatch.setattr(reductions.StepStream, "root", counting_root)
        redraws = 0
        for system in ["head", "weak-cbv", "lo", "ll", "beta", "betav"]:
            plain = system in ("beta", "betav")
            ref = Base(system) if plain else SYSTEMS[SystemId(system)]
            for text in self.TERMS:
                asked.clear()
                code, out, _ = run(capsys, "reduce", text, "--system", system,
                                   "--output", output)
                t = parse(text)
                # a strategy's outcome reads the last term once; a closed
                # term's steps always splice
                redrawn = len(asked) - (not plain)
                assert redrawn == 0 or not is_closed(t)
                redraws += redrawn
                fired, _ = eager_run(t, ref, 1000)
                if output == "json":
                    data = json.loads(out)
                    texts = [data["start"]] + [step["term"] for step in data["steps"]]
                else:
                    lines = out.splitlines()
                    texts = [lines[0]] + [line.split(" -> ", 1)[1] for line in lines[1:-1]]
                assert code == 0 and texts == [show(t)] + [show(u) for _, u in fired]
        assert redraws > 0

    @pytest.mark.parametrize("system", ["lo", "ll", "beta", "betav"])
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_mid_run_redraw_prints_the_term_after_its_step(self, capsys, monkeypatch, system,
                                                           output):
        # step 1 erases the free w below \x, whose name was chosen against
        # the free x of the term, so it is printed from the whole term after
        # step 1: one call to `root()`, besides a strategy's outcome.  The
        # last term would print x (\x.x) v.
        asked = []
        root = reductions.StepStream.root
        monkeypatch.setattr(reductions.StepStream, "root",
                            lambda stream: asked.append(stream) or root(stream))
        code, out, _ = run(capsys, "reduce", MID_RUN, "--system", system, "--output", output)
        if output == "json":
            data = json.loads(out)
            texts = [data["start"]] + [step["term"] for step in data["steps"]]
        else:
            lines = out.splitlines()
            texts = [lines[0]] + [line.split(" -> ", 1)[1] for line in lines[1:-1]]
        assert code == 0 and texts == [MID_RUN, r"x (\x.x) ((\z.z) v)", r"x (\x.x) v"]
        assert len(asked) == 1 + (system in ("lo", "ll"))


# a run whose first step redraws the whole term, and whose second splices
MID_RUN = r"x (\x.(\y.x) w) ((\z.z) v)"


def _church(k: int) -> str:
    return r"(\f.\x." + "f (" * k + "x" + ")" * k + ")"


class TestReduceJson:
    """`reduce --output json` writes its trace from a fixed layout; it must
    be what `json.dumps(payload, indent=2)` prints, each step with the keys
    of `Step.to_json` and then "term"."""

    # (term, fuel); the runs cut at fuel 3 exit 2
    CASES = ([(show(t), 3) for t in terms_up_to(5)]
             + [(show(t), 1000) for t in HINT_COLLISIONS if is_locally_closed(t)]
             + [(f"{_church(k)} {_church(2)}", fuel) for k in range(6) for fuel in (3, 1000)]
             + [(OMEGA, 3)])

    @pytest.mark.parametrize("system", ["head", "weak-cbv", "lo", "ll", "beta", "betav"])
    def test_is_the_indented_dump_of_the_library_steps(self, capsys, monkeypatch, system):
        dumps = json.dumps

        def flat_dumps(obj, **kwargs):
            assert "indent" not in kwargs
            return dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", flat_dumps)
        plain = system in ("beta", "betav")
        ref = Base(system) if plain else SYSTEMS[SystemId(system)]
        empty = exhausted = 0
        for text, fuel in self.CASES:
            code, out, _ = run(capsys, "reduce", text, "--system", system, "--output", "json",
                               "--fuel", str(fuel))
            assert out == dumps(json.loads(out), indent=2) + "\n"
            fired, cut = eager_run(parse(text), ref, fuel)
            assert code == (2 if cut else 0)
            expected = [step for step, _ in fired]
            steps = json.loads(out)["steps"]
            assert [list(step) for step in steps] == [[*s.to_json(), "term"] for s in expected]
            assert ([{key: value for key, value in step.items() if key != "term"}
                     for step in steps] == [s.to_json() for s in expected])
            empty += not steps
            exhausted += cut
        assert empty > 0 and exhausted > 0

    @pytest.mark.parametrize("kind, steps", [
        (StepKind.PLAIN, []),
        (StepKind.PLAIN, [((), None, "\"quoted\" \\x.x\tx")]),
        (StepKind.ESSENTIAL, [(("L", "B"), 0, "caf\u00e9 \u2028 \U0001d706"),
                              (("R",), 3, "\x00\x1f")]),
    ])
    def test_writer_escapes_as_json_dumps(self, kind, steps):
        # text the parser never reads, to pin the escaping to json.dumps's
        payload = {
            "start": "\u03bbx.x",
            "system": "ll",
            "steps": [dict(Step(pos, kind, level).to_json(), term=text)
                      for pos, level, text in steps],
            "outcome": Outcome.FUEL_EXHAUSTED.value,
        }
        out = io.StringIO()
        cli._write_reduce_json(out.write, "\u03bbx.x", "ll", kind, steps, Outcome.FUEL_EXHAUSTED)
        assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


class TestRecordedTrace:
    """`normalize` records its run, and its trace reads as the eager trace
    built on whole terms from the row's steps (`eager_run`): iterated,
    indexed and printed."""

    @pytest.mark.parametrize("system", ["head", "weak-cbv", "lo", "ll", "beta", "betav"])
    def test_reads_as_the_eager_trace_of_the_walk(self, system):
        ref = Base(system) if system in ("beta", "betav") else SYSTEMS[SystemId(system)]
        for text, fuel in TestReduceJson.CASES:
            t = parse(text)
            eager, _ = eager_run(t, ref, fuel)
            trace, _ = normalize(t, ref, fuel)
            steps = trace.steps
            assert len(steps) == len(eager) and trace.end == (eager[-1][1] if eager else t)
            n = len(eager)
            # out of order, so that some replays start again from the start
            for i in ([n // 2, 0, -1, n // 2, n - 1] if n else []):
                step, u = steps[i]
                assert (step, u, show(u)) == (eager[i][0], eager[i][1], show(eager[i][1]))
            assert steps[1:3] == eager[1:3]
            assert [(s, u, show(u)) for s, u in steps] == [(s, u, show(u)) for s, u in eager]
            assert trace.to_json() == Trace(t, eager).to_json()

    def test_index_out_of_range(self):
        trace, _ = normalize(parse(r"(\x.x) y"), SystemId.LO)
        assert len(trace.steps) == 1
        for i in (1, -2):
            with pytest.raises(IndexError):
                trace.steps[i]

    @pytest.mark.parametrize("system", ["head", "weak-cbv", "lo", "ll", "beta", "betav"])
    def test_forward_reads_share_one_replay(self, monkeypatch, system):
        made = []
        init = reductions.StepStream.__init__

        def counting_init(stream, *args):
            made.append(stream)
            init(stream, *args)

        monkeypatch.setattr(reductions.StepStream, "__init__", counting_init)
        ref = Base(system) if system in ("beta", "betav") else SYSTEMS[SystemId(system)]
        # applied to two identities, as in the reduce-church ladders, so
        # that head and weak CbV run too
        t = parse(rf"{_church(3)} {_church(2)} (\z.z) (\z.z)")
        eager, _ = eager_run(t, ref, 1000)
        assert len(eager) >= 10
        for read in (lambda trace: [trace.steps[k] for k in range(len(trace))],
                     lambda trace: list(trace.steps),
                     lambda trace: trace.steps[::-1][::-1]):
            trace, _ = normalize(t, ref)
            made.clear()
            assert read(trace) == eager
            # one replay, and the last term is the recorded stream's
            assert len(made) == 1

    @pytest.mark.parametrize("system", ["head", "weak-cbv", "lo", "ll", "beta", "betav"])
    def test_reversed_replays_once_per_block(self, monkeypatch, system):
        made = []
        init = reductions.StepStream.__init__

        def counting_init(stream, *args):
            made.append(stream)
            init(stream, *args)

        monkeypatch.setattr(reductions.StepStream, "__init__", counting_init)
        ref = Base(system) if system in ("beta", "betav") else SYSTEMS[SystemId(system)]
        trace, _ = normalize(parse(rf"{_church(3)} {_church(2)} (\z.z) (\z.z)"), ref)
        n = len(trace)
        assert n >= 10
        made.clear()
        backwards = list(reversed(trace.steps))
        # one replay per block of about √n steps, not one per step
        assert len(made) <= math.isqrt(n - 1) + 2
        assert backwards == trace.steps[::-1]

    def test_reversed_costs_about_a_slice(self):
        # read one step at a time from the end, the replay would restart at
        # every step: about 20 times the slice on this run of 510 steps
        trace, _ = normalize(parse(f"{_church(8)} {_church(2)}"), SystemId.LO)
        assert len(trace) == 510

        def best(read):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                read()
                times.append(time.perf_counter() - start)
            return min(times)

        sliced = best(lambda: trace.steps[::-1])
        assert best(lambda: list(reversed(trace.steps))) <= 3 * sliced

    @pytest.mark.parametrize("system", ["head", "weak-cbv", "lo", "ll"])
    def test_feeds_factorize(self, system):
        # a run of essential steps is its own factorization
        row = SYSTEMS[SystemId(system)]
        for text, fuel in TestReduceJson.CASES:
            trace, _ = normalize(parse(text), row, fuel)
            result = factorize(trace, row)
            result.validate()
            assert len(trace.steps) == len(trace)
            assert result.essential.steps == list(trace.steps)
            assert result.essential.start is trace.start
            assert result.inessential.steps == [] and result.inessential.start == trace.end


class TestParserReuse:
    """`main` builds its argument parser on the first call and reuses it."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The parsers `main` constructs from here on, counted afresh."""
        made = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(cli, "_Parser", Counting)
        yield made
        cli._build_parser.cache_clear()

    def test_one_parser_for_many_calls(self, capsys, built):
        assert built == []
        for _ in range(3):
            assert run(capsys, "reduce", "x", "--system", "lo")[0] == 0
            assert run(capsys, "level", "x", "--output", "json")[0] == 0
        # the top-level parser and one per subcommand
        assert [parser.prog for parser in built] == [
            "essential-rewrite", *(f"essential-rewrite {command}"
                                   for command in ["reduce", "factorize", "level", "check"])]

    def test_import_builds_no_parser(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        probe = ("import argparse\n"
                 "made = []\n"
                 "init = argparse.ArgumentParser.__init__\n"
                 "def counting(self, *args, **kwargs):\n"
                 "    made.append(self)\n"
                 "    init(self, *args, **kwargs)\n"
                 "argparse.ArgumentParser.__init__ = counting\n"
                 "import essential_rewrite.cli\n"
                 "print(len(made))\n")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")

    def test_import_loads_no_process_pool(self):
        # only a `check --parallel` sweep needs the pool machinery
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        probe = "import sys, essential_rewrite.cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_options_do_not_carry_into_the_next_call(self, capsys, built):
        code, out, _ = run(capsys, "reduce", OMEGA, "--system", "lo", "--fuel", "1")
        assert code == 2 and out.count("->") == 1
        code, out, _ = run(capsys, "reduce", OMEGA, "--system", "lo")
        assert code == 2 and out.count("->") == cli.DEFAULTS["fuel"]
        code, out, _ = run(capsys, "reduce", "x", "--system", "lo", "--output", "json")
        assert code == 0 and json.loads(out)["steps"] == []
        code, out, _ = run(capsys, "reduce", "x", "--system", "lo")
        assert (code, out) == (0, "x\noutcome: normal-form\n")
        assert len(built) == 5

    def test_reads_a_config_set_between_calls(self, capsys, tmp_path, monkeypatch, built):
        monkeypatch.delenv("ESSENTIAL_REWRITE_CONFIG", raising=False)
        code, out, _ = run(capsys, "reduce", OMEGA, "--system", "lo", "--fuel", "2")
        assert code == 2 and out.count("->") == 2
        config = tmp_path / "config.txt"
        config.write_text("fuel = 7\noutput = json\n")
        monkeypatch.setenv("ESSENTIAL_REWRITE_CONFIG", str(config))
        code, out, _ = run(capsys, "reduce", OMEGA, "--system", "lo")
        assert code == 2 and len(json.loads(out)["steps"]) == 7
        assert len(built) == 5

    @pytest.mark.parametrize("argv", [("reduce", "x", "--system", "bogus"),
                                      ("reduce", "x"),
                                      ("level", "x", "--fuel", "3"),
                                      ("check", "confluence", "--system", "lo")])
    def test_usage_error_after_a_good_call(self, capsys, built, argv):
        first = run(capsys, *argv)
        assert first[:2] == (1, "") and first[2].startswith("error:")
        assert run(capsys, "reduce", r"(\x.x) y", "--system", "ll", "--fuel", "5")[0] == 0
        assert run(capsys, *argv) == first
        assert len(built) == 5


class TestFactorize:
    def write(self, tmp_path, lines):
        path = tmp_path / "seq.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_head_regression_file(self, capsys, tmp_path):
        path = self.write(tmp_path, [r"(\z.z) (x ((\z.z) (\z.z)))", "pos R.R", "pos"])
        code, out, _ = run(capsys, "factorize", path, "--system", "head")
        assert code == 0
        prefix = out.split("inessential suffix:")[0]
        assert "essential @ root" in prefix
        assert "inessential @ R" in out

    def test_already_factorized_unchanged(self, capsys, tmp_path):
        path = self.write(tmp_path, [r"(\z.z) (x ((\z.z) (\z.z)))", "pos", "pos R"])
        code, out, _ = run(capsys, "factorize", path, "--system", "head",
                           "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert [s["position"] for s in data["essential"]["steps"]] == [""]
        assert [s["position"] for s in data["inessential"]["steps"]] == ["R"]

    def test_empty_step_list(self, capsys, tmp_path):
        path = self.write(tmp_path, ["x y"])
        code, out, _ = run(capsys, "factorize", path, "--system", "lo",
                           "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["essential"]["steps"] == [] and data["inessential"]["steps"] == []

    def test_invalid_step_names_line(self, capsys, tmp_path):
        path = self.write(tmp_path, ["x y", "pos L"])
        code, _, err = run(capsys, "factorize", path, "--system", "head")
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("lines, message", [
        ([], "sequence file is empty"),
        (["# only a comment", ""], "sequence file is empty"),
        (["(x y", "pos"], "line 1: expected ')' at byte 4"),
        (["# start", "x y", "pos R extra"], "line 3: expected 'pos <path>'"),
        (["x y", "step R"], "line 2: expected 'pos <path>'"),
    ], ids=["empty", "comments-only", "unparsable-term", "pos-with-two-paths", "not-pos"])
    def test_malformed_sequence_file_exits_1(self, capsys, tmp_path, lines, message):
        path = tmp_path / "seq.txt"
        path.write_text("".join(line + "\n" for line in lines))
        code, out, err = run(capsys, "factorize", str(path), "--system", "head")
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_file_that_is_not_utf8_exits_1(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_bytes(b"x y\npos \xff\xfe\n")
        code, out, err = run(capsys, "factorize", str(path), "--system", "head")
        assert (code, out) == (1, "")
        assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte 8)\n"

    def test_bad_position_tag_names_line(self, capsys, tmp_path):
        path = self.write(tmp_path, ["x y", "pos Q"])
        code, _, err = run(capsys, "factorize", path, "--system", "head")
        assert code == 1
        assert "line 2" in err

    def test_json_is_the_library_factorization(self, capsys, tmp_path):
        path = self.write(tmp_path, [r"(\z.z) (x ((\z.z) (\z.z)))", "pos R.R", "pos"])
        code, out, _ = run(capsys, "factorize", path, "--system", "head", "--output", "json")
        assert code == 0
        trace = trace_from_positions(parse(r"(\z.z) (x ((\z.z) (\z.z)))"),
                                     [("R", "R"), ()], "head")
        result = factorize(trace, "head")
        assert json.loads(out) == result.to_json()
        assert result.to_json()["inessential"]["start"] == show(result.essential.end)

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_renders_each_term_once(self, capsys, tmp_path, monkeypatch, output):
        path = self.write(tmp_path, [r"(\z.z) (x ((\z.z) (\z.z)))", "pos R.R", "pos"])
        calls = [0]
        emitter = terms._emitter

        def counting_emitter(*args):
            calls[0] += 1
            return emitter(*args)

        monkeypatch.setattr(terms, "_emitter", counting_emitter)
        code, _, _ = run(capsys, "factorize", path, "--system", "head", "--output", output)
        assert code == 0
        # each part's start rendered whole, and each of the two steps' reducts
        assert calls[0] == 4


class TestLevel:
    def test_infinite_for_variable(self, capsys):
        code, out, _ = run(capsys, "level", "x")
        assert code == 0
        assert "least level of x: inf" in out
        code, out, _ = run(capsys, "level", "x", "--output", "json")
        assert code == 0
        assert json.loads(out) == {"term": "x", "least_level": "inf", "steps": []}

    def test_zero_example(self, capsys):
        code, out, _ = run(capsys, "level", r"(\x.(\w.w) (\w.w)) y")
        assert code == 0
        assert "least level of" in out and ": 0" in out

    def test_one_example_json(self, capsys):
        code, out, _ = run(capsys, "level",
                           r"x (x ((\w.w) (\w.w))) ((\w.w) (\w.w))",
                           "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["least_level"] == 1
        kinds = {s["position"]: s["kind"] for s in data["steps"]}
        assert kinds == {"R": "essential", "L.R.R": "inessential"}

    def test_steps_merge_essential_and_inessential_by_position(self, capsys):
        code, out, _ = run(capsys, "level", r"x ((\w.w) ((\w.w) y)) ((\w.w) y)",
                           "--output", "json")
        assert code == 0
        assert json.loads(out) == {
            "term": r"x ((\w.w) ((\w.w) y)) ((\w.w) y)",
            "least_level": 1,
            "steps": [
                {"position": "L.R", "kind": "essential", "level": 1,
                 "term": r"x ((\w.w) y) ((\w.w) y)"},
                {"position": "L.R.R", "kind": "inessential", "level": 2,
                 "term": r"x ((\w.w) y) ((\w.w) y)"},
                {"position": "R", "kind": "essential", "level": 1,
                 "term": r"x ((\w.w) ((\w.w) y)) y"},
            ]}

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "level", "\\x")
        assert code == 1 and "parse error" in err

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_renders_each_term_once(self, capsys, show_calls, output):
        code, _, _ = run(capsys, "level", r"x (x ((\w.w) (\w.w))) ((\w.w) (\w.w))",
                         "--output", output)
        assert code == 0
        # the term and the reducts of its two redexes
        assert len(show_calls) == 3


# the redex (\y.y) z at the end of a right spine x (x (...)) or under
# binders, each with its own name, 20,000 deep: the term, the redex's
# position and the reduct
DEEP = 20_000
_BINDERS = "".join(f"\\w{i}." for i in range(DEEP))
_DEEP_TERMS = {
    "spine": ("x (" * DEEP + r"(\y.y) z" + ")" * DEEP, ".".join("R" * DEEP),
              "x (" * (DEEP - 1) + "x z" + ")" * (DEEP - 1)),
    "binders": (_BINDERS + r"(\y.y) z", ".".join("B" * DEEP), _BINDERS + "z"),
}


@pytest.fixture
def one_thread(monkeypatch):
    """Runs each command at CPython's default recursion limit and records,
    as each command handler starts, the threads alive, the recursion limit
    and the thread it runs on, against the same before `main` is called."""
    seen = []

    def spy(handler):
        def run_handler(args):
            seen.append((threading.active_count(), sys.getrecursionlimit(),
                         threading.current_thread()))
            return handler(args)
        return run_handler

    for name in ("cmd_reduce", "cmd_level", "cmd_factorize", "cmd_check"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield seen, (threading.active_count(), 1000, threading.current_thread())
    finally:
        sys.setrecursionlimit(old_limit)


class TestDeepTerms:
    """Commands run on the calling thread, with no recursion limit of their
    own, on terms far deeper than the default limit."""

    @pytest.mark.parametrize("shape", sorted(_DEEP_TERMS))
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_reduce(self, capsys, one_thread, shape, output):
        seen, before = one_thread
        term, _, reduct = _DEEP_TERMS[shape]
        code, out, err = run(capsys, "reduce", term, "--system", "lo", "--output", output)
        assert (code, err) == (0, "") and seen == [before]
        assert (threading.active_count(), sys.getrecursionlimit()) == before[:2]
        if output == "json":
            payload = json.loads(out)
            assert payload["start"] == term and payload["steps"][0]["term"] == reduct
        else:
            assert out.splitlines()[0] == term and out.splitlines()[1].endswith(reduct)

    @pytest.mark.parametrize("shape", ["beside", "copied"])
    def test_reduce_measures_deep_siblings(self, capsys, one_thread, shape):
        # x x ... x, a left spine DEEP applications deep, beside a redex or
        # as the argument a redex copies: the first step's text measures it
        seen, before = one_thread
        spine = "x" + " x" * DEEP
        term, reduct = {"beside": (spine + r" ((\y.y) z)", spine + " z"),
                        "copied": (rf"(\v.v v) ({spine})", f"{spine} ({spine})")}[shape]
        code, out, err = run(capsys, "reduce", term, "--system", "lo", "--output", "json")
        assert (code, err) == (0, "") and seen == [before]
        payload = json.loads(out)
        assert payload["start"] == show(parse(term))
        assert [step["term"] for step in payload["steps"]] == [show(parse(reduct))]

    @pytest.mark.parametrize("shape", sorted(_DEEP_TERMS))
    def test_level(self, capsys, one_thread, shape):
        seen, before = one_thread
        term, pos, _ = _DEEP_TERMS[shape]
        code, out, err = run(capsys, "level", term, "--output", "json")
        assert (code, err) == (0, "") and seen == [before]
        payload = json.loads(out)
        assert payload["least_level"] == pos.count("R")
        assert [step["position"] for step in payload["steps"]] == [pos]

    @pytest.mark.parametrize("shape", sorted(_DEEP_TERMS))
    def test_factorize(self, capsys, tmp_path, one_thread, shape):
        seen, before = one_thread
        term, pos, _ = _DEEP_TERMS[shape]
        path = tmp_path / "seq.txt"
        path.write_text(f"{term}\npos {pos}\n", encoding="utf-8")
        code, out, err = run(capsys, "factorize", str(path), "--system", "head",
                             "--output", "json")
        assert (code, err) == (0, "") and seen == [before]
        payload = json.loads(out)
        # the step is essential for head reduction under binders only
        essential = shape == "binders"
        assert len(payload["essential" if essential else "inessential"]["steps"]) == 1

    def test_check_subst_index_on_large_terms(self, capsys, one_thread):
        seen, before = one_thread
        code, out, err = run(capsys, "check", "subst-index", "--size", "2000",
                             "--samples", "1")
        assert (code, err) == (0, "") and seen == [before]
        assert "PASS (1 checked)" in out


class TestCheck:
    def test_pass_exits_0(self, capsys):
        code, out, _ = run(capsys, "check", "determinism", "--system", "head",
                           "--size", "5")
        assert code == 0
        assert "PASS" in out

    def test_unknown_pairing_exits_1(self, capsys):
        code, _, err = run(capsys, "check", "determinism", "--system", "weak-cbv",
                           "--size", "4")
        assert code == 1 and "not claimed" in err

    def test_missing_system_exits_1(self, capsys):
        code, _, err = run(capsys, "check", "determinism", "--size", "4")
        assert code == 1

    def test_missing_system_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "check", "normalization", "--size", "4")
        assert (code, out, err) == (1, "", "error: this property needs --system\n")

    def test_subst_index(self, capsys):
        code, out, _ = run(capsys, "check", "subst-index", "--flavor", "cbn",
                           "--samples", "25", "--seed", "1")
        assert code == 0 and "PASS" in out

    def test_subst_index_honours_size(self, capsys):
        code, out, _ = run(capsys, "check", "subst-index", "--size", "5",
                           "--samples", "5")
        assert code == 0 and out.startswith("subst-index [cbn] size<=5: PASS (5 checked)")

    def test_normalization(self, capsys):
        code, out, _ = run(capsys, "check", "normalization", "--system", "lo",
                           "--size", "5", "--fuel", "100", "--budget", "2000")
        assert code == 0 and "PASS" in out

    def test_normalization_fuel_bounds_least_level(self, capsys):
        code, out, _ = run(capsys, "check", "normalization", "--system", "ll",
                           "--size", "7", "--fuel", "1")
        assert code == 4 and "least-level reduction hit the fuel bound" in out

    def test_normalization_budget_cut_is_inconclusive(self, capsys):
        code, out, _ = run(capsys, "check", "normalization", "--system", "lo",
                           "--size", "6", "--budget", "1")
        assert code == 4
        assert out == ("normalization [lo] size<=6: INCONCLUSIVE (276 checked)\n"
                       "counterexample: (\\x.x) x: beta graph search hit a budget before an"
                       " essential-normal term (174 terms inconclusive)\n")

    def test_json_report_round_trips(self, capsys):
        code, out, _ = run(capsys, "check", "fullness", "--system", "ll",
                           "--size", "5", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["result"] == "PASS" and data["property"] == "fullness"

    def test_byte_identical_reruns(self, capsys):
        args = ("check", "diamond", "--system", "ll", "--size", "5",
                "--output", "json", "--seed", "7")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first.encode() == second.encode()

    def test_no_samples_exits_4(self, capsys):
        code, out, _ = run(capsys, "check", "subst-index", "--samples", "0")
        assert code == 4 and "INCONCLUSIVE (0 checked)" in out
        assert "no samples drawn" in out

    @pytest.mark.parametrize("prop, given, unread", [
        ("subst-index", ("--system", "lo"), "--system"),
        ("subst-index", ("--parallel", "2"), "--parallel"),
        ("normalization", ("--system", "lo", "--parallel", "2"), "--parallel"),
        *[("subst-index", (f"--{option}", "3"), f"--{option}")
          for option in ("fuel", "budget", "depth")],
        *[(prop, ("--system", "lo", f"--{option}", "3"), f"--{option}")
          for prop in EXHAUSTIVE for option in ("fuel", "budget", "depth", "samples")],
        *[(prop, ("--system", "lo", "--flavor", "cbv"), "--flavor") for prop in EXHAUSTIVE],
        ("normalization", ("--system", "lo", "--samples", "3"), "--samples"),
        ("normalization", ("--system", "lo", "--flavor", "cbv"), "--flavor"),
    ])
    def test_rejects_an_option_the_property_does_not_read(self, capsys, prop, given, unread):
        code, out, err = run(capsys, "check", prop, *given)
        assert (code, out, err) == (1, "", f"error: check {prop} does not take {unread}\n")

    def test_names_every_unread_option(self, capsys):
        code, _, err = run(capsys, "check", "subst-index", "--depth", "2", "--system", "ll")
        assert code == 1
        assert err == "error: check subst-index does not take --system, --depth\n"

    def test_parallel_workers(self, capsys):
        code, out, _ = run(capsys, "check", "persistence", "--system", "head",
                           "--size", "5", "--parallel", "2")
        assert code == 0 and "PASS" in out


class TestConfig:
    def test_env_config_overrides_defaults(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.txt"
        config.write_text("fuel = 7\noutput = json\n# comment\n")
        monkeypatch.setenv("ESSENTIAL_REWRITE_CONFIG", str(config))
        code, out, _ = run(capsys, "reduce", r"(\x.x x) (\x.x x)", "--system", "lo")
        assert code == 2
        data = json.loads(out)
        assert len(data["steps"]) == 7

    def test_explicit_flag_beats_config(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.txt"
        config.write_text("fuel = 7\n")
        monkeypatch.setenv("ESSENTIAL_REWRITE_CONFIG", str(config))
        code, out, _ = run(capsys, "reduce", r"(\x.x x) (\x.x x)",
                           "--system", "lo", "--fuel", "3")
        assert code == 2
        assert out.count("->") == 3

    def test_malformed_config_value_exits_1(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.txt"
        config.write_text("fuel = abc\n")
        monkeypatch.setenv("ESSENTIAL_REWRITE_CONFIG", str(config))
        code, _, err = run(capsys, "reduce", "x", "--system", "lo")
        assert code == 1
        assert err.startswith("error:") and "fuel" in err

    @pytest.mark.parametrize("key", [k for k, v in cli.DEFAULTS.items() if isinstance(v, int)])
    def test_every_numeric_config_key_must_be_an_integer(self, capsys, tmp_path, monkeypatch,
                                                          key):
        config = tmp_path / "config.txt"
        config.write_text(f"{key} = 1.5\n")
        monkeypatch.setenv("ESSENTIAL_REWRITE_CONFIG", str(config))
        code, _, err = run(capsys, "level", "x")
        assert code == 1
        assert err == f"error: ESSENTIAL_REWRITE_CONFIG: {key} must be an integer, got '1.5'\n"

    def test_out_of_range_config_value_exits_1(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.txt"
        config.write_text("fuel = 0\n")
        monkeypatch.setenv("ESSENTIAL_REWRITE_CONFIG", str(config))
        code, _, err = run(capsys, "reduce", "x", "--system", "lo")
        assert code == 1 and err.startswith("error:")

    def test_config_keys_a_subcommand_does_not_take_are_skipped(self, capsys, tmp_path,
                                                                 monkeypatch):
        config = tmp_path / "config.txt"
        config.write_text("size = 0\nseed = 5\nparallel = 0\nfuel = 7\n")
        monkeypatch.setenv("ESSENTIAL_REWRITE_CONFIG", str(config))
        code, out, _ = run(capsys, "reduce", r"(\x.x x) (\x.x x)", "--system", "lo")
        assert code == 2 and out.count("->") == 7
        code, _, _ = run(capsys, "level", "x")
        assert code == 0

    def test_config_keys_a_property_does_not_read_are_skipped(self, capsys, tmp_path,
                                                              monkeypatch):
        config = tmp_path / "config.txt"
        config.write_text("fuel = 7\nbudget = 9\ndepth = 3\nparallel = 2\nsamples = 4\n")
        monkeypatch.setenv("ESSENTIAL_REWRITE_CONFIG", str(config))
        code, out, _ = run(capsys, "check", "subst-index", "--size", "5")
        assert code == 0 and out.startswith("subst-index [cbn] size<=5: PASS (4 checked)")
        code, out, _ = run(capsys, "check", "determinism", "--system", "head", "--size", "4")
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("key, value, argv", [
        ("parallel", 0, ("check", "normalization", "--system", "lo", "--size", "3")),
        ("fuel", 0, ("check", "diamond", "--system", "ll", "--size", "3")),
        ("budget", 0, ("check", "subst-index", "--size", "4", "--samples", "3")),
        ("samples", -5, ("check", "decomposition", "--system", "lo", "--size", "3")),
    ])
    def test_out_of_range_config_keys_a_property_does_not_read_are_skipped(
            self, capsys, tmp_path, monkeypatch, key, value, argv):
        config = tmp_path / "config.txt"
        config.write_text(f"{key} = {value}\n")
        monkeypatch.setenv("ESSENTIAL_REWRITE_CONFIG", str(config))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and ": PASS (" in out

    def test_out_of_range_config_key_a_property_reads_exits_1(self, capsys, tmp_path,
                                                              monkeypatch):
        config = tmp_path / "config.txt"
        config.write_text("parallel = 0\n")
        monkeypatch.setenv("ESSENTIAL_REWRITE_CONFIG", str(config))
        code, out, err = run(capsys, "check", "split", "--system", "lo", "--size", "3")
        assert (code, out, err) == (1, "", "error: parallel must be at least 1, got 0\n")

    def test_config_that_is_not_utf8_exits_1(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.txt"
        config.write_bytes(b"\xff\xfe\n")
        monkeypatch.setenv("ESSENTIAL_REWRITE_CONFIG", str(config))
        code, out, err = run(capsys, "level", "x")
        assert (code, out) == (1, "")
        assert err == f"error: {config}: not UTF-8 text (invalid start byte at byte 0)\n"

    def test_unknown_config_output_exits_1(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.txt"
        config.write_text("output = xml\n")
        monkeypatch.setenv("ESSENTIAL_REWRITE_CONFIG", str(config))
        code, out, err = run(capsys, "reduce", "x", "--system", "lo")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "output" in err


class TestBadOptionValues:
    @pytest.mark.parametrize("argv", [
        ("reduce", "x", "--system", "lo", "--fuel", "0"),
        ("reduce", "x", "--system", "beta", "--fuel", "-1"),
        ("check", "split", "--system", "head", "--size", "0"),
        ("check", "normalization", "--system", "lo", "--budget", "0"),
        ("check", "normalization", "--system", "lo", "--depth", "0"),
        ("check", "subst-index", "--samples", "-1"),
        ("check", "subst-index", "--size", "3", "--samples", "5"),
        # usage errors: argparse alone would exit 2, the fuel-exhausted code
        ("reduce", "x", "--system", "bogus"),
        ("reduce", "x"),
        ("reduce", "x", "--system", "lo", "--nope"),
        ("reduce", "x", "--system", "lo", "--fuel", "many"),
        ("check", "confluence", "--system", "lo"),
        # options a subcommand does not read
        ("reduce", "x", "--system", "lo", "--seed", "5", "--depth", "3", "--budget", "7",
         "--size", "2", "--parallel", "3"),
        ("reduce", "x", "--system", "lo", "--samples", "3"),
        ("level", "x", "--fuel", "3"),
        ("level", "x", "--size", "3"),
    ])
    def test_exits_1_with_message(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("option", ["--fuel", "--size", "--budget", "--depth", "--seed",
                                        "--parallel", "--samples"])
    def test_factorize_takes_only_output(self, capsys, tmp_path, option):
        path = tmp_path / "seq.txt"
        path.write_text("x y\n")
        code, out, err = run(capsys, "factorize", str(path), "--system", "head", option, "3")
        assert (code, out) == (1, "")
        assert err == f"error: unrecognized arguments: {option} 3\n"

    def test_parallel_below_one(self, capsys):
        code, out, err = run(capsys, "check", "split", "--system", "lo", "--size", "3",
                             "--parallel", "-3")
        assert (code, out) == (1, "")
        assert err == "error: parallel must be at least 1, got -3\n"


@pytest.mark.parametrize("command, options", [
    ("reduce", {"--system", "--fuel", "--output"}),
    ("factorize", {"--system", "--output"}),
    ("level", {"--output"}),
    ("check", {"--system", "--flavor", "--size", "--seed", "--output", "--parallel", "--fuel",
               "--budget", "--depth", "--samples"}),
])
def test_each_subcommand_takes_exactly_its_options(command, options):
    """The options README lists for each subcommand, and no others."""
    sub, = (action for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    taken = {flag for action in sub.choices[command]._actions for flag in action.option_strings}
    assert taken - {"-h", "--help"} == options


def test_runs_as_a_module_from_a_checkout():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "essential_rewrite", "reduce", r"(\x.x x) (\y.y)",
                           "--system", "lo"], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == ("(\\x.x x) (\\y.y)\n"
                           "  essential @ root -> (\\y.y) (\\y.y)\n"
                           "  essential @ root -> \\y.y\n"
                           "outcome: normal-form\n")
