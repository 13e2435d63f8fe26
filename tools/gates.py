"""The checks CI runs past the test suite: peak and time bounds of the
scale envelope, and the exit-code contract on hostile input.

    PYTHONPATH=src python3 tools/gates.py

Each row runs in a fresh interpreter, in one directory of inputs
(`write_inputs`), as the one child of a small interpreter (`spawn`) that
reads its peak RSS: a process starts with its parent's `ru_maxrss`, so a
large runner would report its own.  Exits 1 naming the failed rows.
"""

import contextlib
import io
import json
import os
import sys
from typing import Callable, NamedTuple, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
K2, K3 = ("a", "b"), ("a", "b", "c")
# the command line of a child whose output ends with a line holding what
# function argv[1] of this module returns on the JSON list argv[2]
_CALL = ("import json, sys; sys.path.insert(0, %r); import gates;"
         " print('\\n' + json.dumps(getattr(gates, sys.argv[1])(*json.loads(sys.argv[2]))), end='')"
         % os.path.join(ROOT, "tools"))


def _cli(argv: list[str]) -> tuple[int, dict]:
    """`cli.main(argv)` in-process: its exit code and its JSON output."""
    from scflogic import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def cli_calls(key: str, *commands: str) -> list:
    """`cli.main` on each command line in turn: exit code and JSON `key` of each."""
    verdicts = []
    for command in commands:
        code, data = _cli(command.split())
        verdicts.append([code, data[key]])
    return verdicts


def hostile_text(name: str) -> list[int]:
    """`valid` of a text too long for one argv string: exit code and stderr lines."""
    from scflogic import cli

    err = io.StringIO()
    with open(f"{name}.txt") as f, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["valid", "--agents", "1", "--outcomes", "a,b", f.read(), "--json"])
    return [code, err.getvalue().count("\n")]


def antisym() -> str:
    """The one schema through `instantiate` and `soundness_check`: 139,968 instances."""
    from scflogic.axioms import default_pool, instantiate, soundness_check
    from scflogic.decision import sample_models

    instances = instantiate("antisym'", 3, K3, default_pool(3, K3))
    return "PASS" if soundness_check(instances, sample_models(3, K3, 1000, seed=1)).ok else "FAIL"


def schema_sweeps() -> list[bool]:
    """Each schema through `instantiate` and a `soundness_check` of its own,
    over one model list per scale, as a library caller or the benchmark
    sweeps: (3,{a,b}) over its 2,048 models, then (2,{a,b,c}) over 1,008
    sampled ones.  Whether every check passed, per scale."""
    from scflogic.axioms import SCHEMAS, default_pool, instantiate, soundness_check
    from scflogic.decision import enumerate_models, sample_models

    verdicts = []
    for n, outcomes, models in ((3, K2, list(enumerate_models(3, K2))), (2, K3, sample_models(2, K3, 1000, seed=1))):
        pool = default_pool(n, outcomes)
        verdicts.append(all(soundness_check(instantiate(schema, n, outcomes, pool), models).ok for schema in SCHEMAS))
    return verdicts


def audits() -> list:
    """`audit` of the (3,{a,b,c}) dictatorship, then the (2,{a,b,c,d}) one:
    exit code, "all_agree", and whether the call kept under its time bound
    and the process under its peak bound in MiB."""
    import resource
    import time

    verdicts = []
    for path, seconds, mib in (("dictator3abc1.json", 1, 44), ("dictator2abcd1.json", 4, 200)):
        start = time.perf_counter()
        code, data = _cli(["audit", "--scf", path, "--json"])
        took = time.perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdicts.append([code, data["all_agree"], took < seconds, peak < mib])
    return verdicts


def second_table() -> list:
    """`mon` on agent 1's (3,{a,b,c}) dictatorship, then on agent 3's in
    the same process: exit code and "agrees" of each, and whether the
    second call, which runs the kept residual program, took under 1 s."""
    import time

    verdicts = cli_calls("agrees", "property --scf dictator3abc1.json mon --json")
    start = time.perf_counter()
    verdicts += cli_calls("agrees", "property --scf dictator3abc3.json mon --json")
    return verdicts + [time.perf_counter() - start < 1]


def refusals(path: str) -> list:
    """`property` strproof and mon of the SCF at `path`: exit code and
    stderr lines of each."""
    from scflogic import cli

    verdicts = []
    for check in ("strproof", "mon"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["property", "--scf", path, check, "--json"])
        verdicts.append([code, err.getvalue().count("\n")])
    return verdicts


def property_calls() -> int:
    """Of six property checks and an audit of each of 20 seeded tables and
    the two dictatorships, the calls whose encoding disagrees with its
    oracle or whose exit code is not the verdict's."""
    import random

    from scflogic import ScfTable, all_profiles, save_scf

    rng = random.Random(1)
    states = len(all_profiles(2, K3))
    tables = [ScfTable(2, K3, tuple(rng.choice(K3) for _ in range(states))) for _ in range(20)]
    tables += [ScfTable.from_function(2, K3, lambda p, i=i: p.order(i).top) for i in (1, 2)]
    bad = 0
    for t, table in enumerate(tables):
        save_scf(table, f"scf{t}.json")
        for check in ("citsov", "nodict", "dom", "br(1)", "br(2)", "strproof"):
            code, data = _cli(["property", "--scf", f"scf{t}.json", check, "--json"])
            bad += data["agrees"] is not True or code != (0 if data["verdict"] == "PASS" else 1)
        # the encoding against the oracle; exit 0 iff all four notions agree
        code, data = _cli(["audit", "--scf", f"scf{t}.json", "--json"])
        bad += data["strproof_encoding"] != data["truthful_dom"] or code != (0 if data["all_agree"] else 1)
    return bad


def first_counterexample(code: int, out: str, err: str) -> list:
    """Exit code, and whether the counterexample is the first hit that
    `bench/checks.py` finds."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import checks as C

    found = json.loads(out)["counterexample"]
    values, truth = C.model_from_json(found["model"])
    where = C.profile_position(4, K2)
    got = (C.table_index(values, K2) * len(where) + truth, where[tuple(map(tuple, found["state"]))])
    formula = ("imp", ("dia", frozenset({1, 2, 3, 4}), ("out", "a")), ("out", "a"))
    return [code, got == C.first_hit(4, K2, formula, False, C.model_count(4, K2))]


def bench_record(code: int, out: str, err: str, builds: bool) -> list:
    record = json.loads(out.splitlines()[-1])
    counted = [record["metrics"]["encodings.builds"]["value"] > 0] if builds else []
    return [record["failed"], record["correct"], *counted]


class Row(NamedTuple):
    """A check: its command, the argv after the interpreter's or a body of
    this module and its arguments; the verdict its judge must read from
    the exit code, stdout and stderr (by default, what the body returned);
    its peak bound in MiB (None: no bound), its time limit in seconds, and
    the address space it may take, in KiB, as `ulimit -v` sets it."""

    name: str
    command: tuple
    expect: object
    mib: Optional[float]
    seconds: float
    judge: Callable[[int, str, str], object] = lambda code, out, err: json.loads(out.splitlines()[-1])
    vmem_kib: Optional[int] = None


def _hostile_file(name: str, seconds: float) -> Row:
    argv = ("-m", "scflogic.cli", "property", "--scf", f"{name}.json", "citsov")
    return Row(f"hostile file {name}", argv, [2, 1], None, seconds, lambda code, out, err: [code, err.count("\n")])


def _bench(workload: str, trace: int, mib: Optional[float] = None, builds: bool = False) -> Row:
    argv = (os.path.join(ROOT, "bench", "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1")
    return Row(f"bench {workload}" + " traced" * trace, (*argv, "--trace", str(trace)), [0, True] + [True] * builds,
               mib, 60, lambda code, out, err: bench_record(code, out, err, builds))


ROWS = [
    *(_hostile_file(name, 10) for name in ("huge", "wide", "short", "broken", "string")),
    _hostile_file("many", 2),  # 2*10^5 outcome names: no |K|! and no O(|K|^2) decoding
    _hostile_file("reversed", 3),  # one entry reversing 10^5 names: no quadratic Lehmer rank
    Row("hostile text negations", (hostile_text, "negations"), [1, 0], 80, 5),  # 10^5 "~" before "a": 0.6 s
    Row("hostile text disjuncts", (hostile_text, "disjuncts"), [1, 0], 195, 15),  # 250,001 disjuncts: 2.5 s
    Row("hostile text quote", (hostile_text, "quote"), [2, 1], 25, 2),  # a lexical error, found at once
    Row("hostile text ideographic", (hostile_text, "ideographic"), [2, 1], 25, 2),
    # the axiom sweeps: 0.2-0.4 s and 17.6-18.6 MiB each at (3,{a,b}), (4,{a,b})
    # and sampled (2,{a,b,c}), antisym' 1.2-1.8 s and 23.6 MiB, six runs each
    # on two shared cores; (3,{a,b,c}) 1.7-2.4 s and 24.7-24.9 MiB, four runs
    Row("axioms (3,{a,b})", (cli_calls, "ok", "axioms --agents 3 --outcomes a,b --json"), [[0, True]], 23, 3),
    Row("axioms (4,{a,b})", (cli_calls, "ok", "axioms --agents 4 --outcomes a,b --json"), [[0, True]], 23, 3),
    Row("sampled axioms (2,{a,b,c})", (cli_calls, "ok", "axioms --agents 2 --outcomes a,b,c --json"), [[0, True]],
        23, 3),
    Row("antisym' (3,{a,b,c})", (antisym,), "PASS", 31, 6, vmem_kib=3000000),
    # one `soundness_check` per schema over one model list, each after the
    # first reusing the list's stacked evaluator: 0.27-0.42 s, 18.1-18.5 MiB
    Row("schema by schema, (3,{a,b}) and sampled (2,{a,b,c})", (schema_sweeps,), [True, True], 23, 3),
    Row("axioms (3,{a,b,c})", (cli_calls, "ok", "axioms --agents 3 --outcomes a,b,c --json"), [[0, True]], 32, 6),
    # the property checks run residual programs, three runs each: strproof
    # 0.2-0.3 s and 27.1 MiB at (3,{a,b,c}), 1.1-1.2 s and 170.8 MiB at
    # (2,{a,b,c,d}); the audits 1.2-1.3 s and 171.9 MiB; mon 0.8-1.0 s and
    # 29.5 MiB at (3,{a,b,c}), 6.3-7.1 s and 181.0 MiB at (2,{a,b,c,d})
    Row("strproof (3,{a,b,c})", (cli_calls, "agrees", "property --scf dictator3abc1.json strproof --json"),
        [[0, True]], 40, 10),
    Row("strproof (2,{a,b,c,d})", (cli_calls, "agrees", "property --scf dictator2abcd1.json strproof --json"),
        [[0, True]], 200, 20),
    Row("audit (3,{a,b,c}) and (2,{a,b,c,d})", (audits,), [[0, True, True, True]] * 2, 200, 30),
    # agent 2's check runs the residual program agent 1's emitted: 0.1-0.2 s
    Row("mon (2,{a,b,c}), both dictatorships", (cli_calls, "agrees", "property --scf dictator2abc1.json mon --json",
                                                "property --scf dictator2abc2.json mon --json"),
        [[0, True]] * 2, 25, 2),
    # the mon formula checked on one model, lifted to its 2,942-entry residual
    # program: 0.51-0.52 s and 57.4-57.6 MiB, three runs; the verbatim
    # 56,012-entry program took 0.52-0.57 s and 59.3 MiB
    Row("check mon (2,{a,b,c})", (cli_calls, "valid", "check --model dictator2abc1model.json mon --json"),
        [[0, True]], 66, 2),
    Row("mon (3,{a,b,c})", (cli_calls, "agrees", "property --scf dictator3abc1.json mon --json"), [[0, True]], 36, 5),
    Row("mon (3,{a,b,c}), a second table", (second_table,), [[0, True], [0, True], True], 36, 5),
    Row("mon (2,{a,b,c,d})", (cli_calls, "agrees", "property --scf dictator2abcd1.json mon --json"), [[0, True]],
        200, 30),
    # refused from (kind, n, |K|) before anything is emitted: 0.2 s, 33 MiB
    Row("strproof and mon refused, (3,{a,b,c,d})", (refusals, "dictator3abcd1.json"), [[2, 1]] * 2, 40, 1),
    Row("strproof and mon refused, (2,{a,b,c,d,e})", (refusals, "dictator2abcde1.json"), [[2, 1]] * 2, 40, 1),
    Row("valid (4,{a,b})", ("-m", "scflogic.cli", "valid", "--agents", "4", "--outcomes", "a,b", "<N> a -> a",
                            "--json"), [1, True], None, 30, first_counterexample),
    # whole-class walks past the enumeration's kept ramp, 65,536 outcome
    # functions each, three runs: 0.26-0.32 s and 18.7-19.0 MiB (a | b),
    # 0.26-0.36 s and 18.0-18.1 MiB (pref).  Keeping every chunk, not the
    # ramp alone, peaked at 29.8 and 33.6 MiB with the rows laid out, and at
    # 18.2 and 21.9 MiB with `_ClassRows` slices
    *(Row(f"whole-class valid (4,{{a,b}}), {text}", ("-m", "scflogic.cli", "valid", "--agents", "4", "--outcomes",
                                                     "a,b", text, "--budget", budget, "--json"),
          [0, "valid"], mib, 3, lambda code, out, err: [code, json.loads(out)["status"]])
      for text, budget, mib in (("a | b", "1000000", 22), ("pref(1) a | pref(1) b", "2000000", 20))),
    Row("154 property calls over 22 (2,{a,b,c}) tables", (property_calls,), 0, 25, 60),
    _bench("property-check", 0),
    _bench("formula-decide", 0),
    _bench("axiom-sweep", 0, 150),
    _bench("formula-decide", 1, builds=True),
    _bench("property-check", 1),
    _bench("axiom-sweep", 1),
]


def write_inputs(directory: str) -> None:
    """Writes to `directory` the hostile input files and texts, agent i's
    dictatorship over (n, K) as dictator<n><K><i>.json, and agent 1's over
    (2,{a,b,c}) with the first profile as the true one, a model, as
    dictator2abc1model.json."""
    from scflogic import ScfModel, ScfTable, all_profiles, save_model, save_scf

    names = [f"o{i}" for i in range(200000)]
    files = {
        "huge.json": json.dumps({"agents": 10**9, "outcomes": K3, "map": []}),
        "wide.json": json.dumps({"agents": 1, "outcomes": list("abcdefghijkl"), "map": []}),
        "short.json": json.dumps({"agents": 2, "outcomes": K2, "map": [{"profile": [K2, K2], "outcome": "a"}]}),
        "broken.json": "{not json",
        "string.json": json.dumps({"agents": 1, "outcomes": K3, "map": [{"profile": ["abc"], "outcome": "a"}]}),
        "many.json": json.dumps({"agents": 1, "outcomes": names, "map": []}),
        "reversed.json": json.dumps({"agents": 1, "outcomes": names[:100000],
                                     "map": [{"profile": [names[99999::-1]], "outcome": "o0"}]}),
        "negations.txt": "~" * 10**5 + "a",
        "disjuncts.txt": "a | " * 250000 + "a",
        "quote.txt": "'" + "a" * 10**6,  # an unterminated string literal
        "ideographic.txt": "\u3000" * 10**5,
    }
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
            f.write(text)
    for n, outcomes, agent in ((3, K3, 1), (3, K3, 3), (2, (*K3, "d"), 1), (2, K3, 1), (2, K3, 2),
                               (3, (*K3, "d"), 1), (2, (*K3, "d", "e"), 1)):
        table = ScfTable.from_function(n, outcomes, lambda p: p.order(agent).top)
        save_scf(table, os.path.join(directory, f"dictator{n}{''.join(outcomes)}{agent}.json"))
        if (n, outcomes, agent) == (2, K3, 1):  # with the first profile as the true one
            model = ScfModel(table, all_profiles(n, outcomes)[0])
            save_model(model, os.path.join(directory, f"dictator{n}{''.join(outcomes)}{agent}model.json"))


def spawn(seconds: float, vmem_kib: Optional[int], argv: list[str]) -> list:
    """Runs `argv` under the limits: exit code (None if killed at
    `seconds`), peak RSS in MiB and wall time."""
    import resource
    import subprocess
    import time

    cap = vmem_kib and (lambda: resource.setrlimit(resource.RLIMIT_AS, (vmem_kib * 1024,) * 2))
    start = time.perf_counter()
    try:
        code = subprocess.run(argv, timeout=seconds, preexec_fn=cap or None).returncode
    except subprocess.TimeoutExpired:
        code = None
    return [code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, time.perf_counter() - start]


def run_row(row: Row, directory: str) -> bool:
    """Runs `row` in `directory`, prints its line, and tells whether it passed."""
    import subprocess

    argv = list(row.command)
    if callable(argv[0]):
        argv = ["-c", _CALL, argv[0].__name__, json.dumps(argv[1:])]
    spawner = ["-c", _CALL, "spawn", json.dumps([row.seconds, row.vmem_kib, [sys.executable, *argv]])]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    child = subprocess.run([sys.executable, *spawner], cwd=directory, env=env, capture_output=True, text=True)
    stdout, _, report = child.stdout.rpartition("\n")
    code, peak, took = json.loads(report)
    try:
        verdict = "timed out" if code is None else row.judge(code, stdout, child.stderr)
    except (ValueError, KeyError, IndexError) as exc:
        verdict = f"no verdict ({type(exc).__name__}), exit {code}"
    passed = verdict == row.expect and (row.mib is None or peak < row.mib)
    print(f"{'PASS' if passed else 'FAIL'}  {row.name}: {json.dumps(verdict)}, peak {peak:.1f} MiB"
          f" (bound {row.mib}), {took:.2f} s (limit {row.seconds})", flush=True)
    if not passed and child.stderr:
        print("      " + child.stderr[-400:].strip().replace("\n", "\n      "), flush=True)
    return passed


def run(rows: list[Row]) -> list[str]:
    """Runs every row, prints a line naming those that failed, and returns their names."""
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        failed = [row.name for row in rows if not run_row(row, directory)]
    print(f"{len(rows) - len(failed)} of {len(rows)} rows passed" + "; failed: " * bool(failed) + ", ".join(failed))
    return failed


if __name__ == "__main__":
    sys.exit(1 if run(ROWS) else 0)
