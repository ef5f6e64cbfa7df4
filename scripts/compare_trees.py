#!/usr/bin/env python3
"""Compare one pass of each benchmark workload under two source trees.

    python3 scripts/compare_trees.py OLD_TREE NEW_TREE [--workload ladder] [--seed 1]

Each tree is a source checkout.  For each tree and workload a child
interpreter, with one BLAS thread, imports ``flexmarket`` from the tree's
``src/`` and the benchmark's ``workloads`` module from its ``perfbench/``,
and runs one pass as ``perfbench/run.py`` does: ``set_up``, then ``work`` on
every case.  It records per case the rounds, the trace CSV, the comparison
report, any error, the path of every ``qp.solve`` (cold solves apart), a
digest of every ``qp.solve`` result: its status, path and the bits of x, y
and z, in call order, the ``iterations`` of every ``qp.solve``, which count
the dual method's steps (0 for a hint), in call order, and the row sets
that hinted walks solved: the ``_solve_active`` calls inside the first
``_polish`` of a hinted ``qp.solve``, which is the walk.  Each child also
reports its peak resident set size, ``ru_maxrss`` of
``resource.getrusage(RUSAGE_SELF)``, taken before it writes its record.

The ``cli`` workload is not the benchmark's: per bundled case the child runs
``flexmarket run --case CASE --mode compare`` with ``--trace`` and
``--report`` and the default tolerances, and records the trace and report
files, stdout, and any failure (exit code and stderr) besides the rounds,
paths and digest.

Printed first, per tree: the size of ``src/flexmarket/*.py``, in lines and
in code lines, which leave out comments, docstrings and blank lines (counted
with ``tokenize``).  Printed per workload: the peak resident set size of the
child on each tree.
Printed per case: the rounds on both trees, whether the trace, the report,
stdout (``cli`` only), the solve digest and the dual steps are identical,
with the total steps and the walk row sets on each tree, the largest
|difference| per trace column and per numeric report field (fields that
differ in kind, such as a flag, are printed with both values), and the solve
paths on each tree.  Two last lines say whether every solve digest and every
solve's dual steps, set-up's included, match: a change to the cold path that
keeps the answers but takes other steps shows there, and a change to the
hinted walk's budget shows in the walk row sets.  Times are not compared:
use ``perfbench/run.py`` for that.
"""
import argparse
import csv
import glob
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tokenize
from collections import Counter

WORKLOADS = ("bundled-compare", "ladder", "cold-certify", "cli")
CLI_CASES = ("toy2", "toy2-congested", "tri3")


def capture(tree, workload, seed):
    """One pass of ``workload`` under ``tree``, as a JSON-ready list per case."""
    import tempfile
    from pathlib import Path

    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    from flexmarket import qp

    solve, polish, solve_active = qp.solve, qp._polish, qp._solve_active
    record = {}  # what the open case, or set-up, has solved so far
    walk = {"next": False, "open": False}  # the next _polish is a walk; a walk is open

    def begin():
        record.update(paths=Counter(), digest=hashlib.sha256(), steps=[], walk_sets=0)

    def end():
        return {**record, "paths": dict(record["paths"]), "digest": record["digest"].hexdigest()}

    def recording_solve(*args, active_hint=None, **kwargs):
        walk["next"] = active_hint is not None
        try:
            sol = solve(*args, active_hint=active_hint, **kwargs)
        finally:
            walk["next"] = False
        record["paths"][("hinted " if active_hint is not None else "cold ") + sol.path] += 1
        record["steps"].append(sol.iterations)
        digest = record["digest"]
        digest.update(f"{sol.status} {sol.path}\n".encode())
        for v in (sol.x, sol.y, sol.z):
            digest.update(v.astype("<f8").tobytes() + b"|")
        return sol

    def recording_polish(*args):
        walk["open"], walk["next"] = walk["next"], False
        try:
            return polish(*args)
        finally:
            walk["open"] = False

    def recording_solve_active(*args):
        if walk["open"]:
            record["walk_sets"] += 1
        return solve_active(*args)

    qp.solve, qp._polish, qp._solve_active = recording_solve, recording_polish, recording_solve_active
    out = []
    if workload == "cli":
        for case in CLI_CASES:
            begin()
            out.append({"name": case, **run_cli(case), **end()})
        return {"setup": {"paths": {}, "digest": "", "steps": [], "walk_sets": 0}, "cases": out}
    import workloads
    with tempfile.TemporaryDirectory() as scratch:
        begin()
        cases = workloads.set_up(workloads.specs(workload, seed))
        setup = end()
        for case in cases:
            begin()
            res = workloads.work(case, Path(scratch))
            out.append({"name": case.spec.name, "error": res.error,
                        "rounds": res.run.rounds if res.run is not None else None,
                        "csv": res.csv, "report": res.report, **end()})
    return {"setup": setup, "cases": out}


def run_cli(case):
    """``flexmarket run --case CASE --mode compare`` and what it wrote."""
    import contextlib
    import tempfile
    from pathlib import Path

    from flexmarket import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        trace, report = Path(scratch, "trace.csv"), Path(scratch, "report.json")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["run", "--case", case, "--mode", "compare",
                             "--trace", str(trace), "--report", str(report)])
        csv_text = trace.read_text() if trace.exists() else None
        report_text = report.read_text() if report.exists() else None
    return {"error": f"exit {code}: {stderr.getvalue()}" if code else None,
            "rounds": json.loads(report_text).get("rounds") if report_text else None,
            "csv": csv_text, "report": report_text, "stdout": stdout.getvalue()}


def code_lines(path):
    """The lines of a Python file that hold code: not a comment, a docstring
    (a statement that is one string) or blank."""
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    starts = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING)
    lines = set()
    for before, token, after in zip(tokens, tokens[1:], tokens[2:]):
        if token.type in starts or (token.type == tokenize.STRING and before.type in starts
                                    and after.type == tokenize.NEWLINE):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def size(tree):
    """Lines and code lines of the package's modules under ``tree``."""
    paths = glob.glob(os.path.join(tree, "src", "flexmarket", "*.py"))
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            total += sum(1 for _ in f)
    return f"{total} lines, {sum(map(code_lines, paths))} code lines"


def run_child(tree, workload, seed):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-I", os.path.abspath(__file__), "--capture", tree,
                           "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True, env=env, check=False)
    if done.returncode:
        sys.exit(f"{tree} {workload}: child failed\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def column_deltas(old_csv, new_csv):
    """Largest |difference| per column over the rows both traces have."""
    old = list(csv.DictReader(io.StringIO(old_csv)))
    new = list(csv.DictReader(io.StringIO(new_csv)))
    deltas = {}
    for a, b in zip(old, new):
        for key in a.keys() | b.keys():
            deltas[key] = max(deltas.get(key, 0.0), leaf_delta(a.get(key), b.get(key)))
    return deltas


def leaf_delta(a, b):
    """|a - b| for two numbers or numeric strings, 0 if equal, else inf."""
    if a == b:
        return 0.0
    try:
        return abs(float(a) - float(b))
    except (TypeError, ValueError):
        return math.inf


def flatten(value, prefix=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from flatten(item, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from flatten(item, f"{prefix}[{k}]")
    else:
        yield prefix, value


def report_deltas(old, new):
    """Largest |difference| per report field, and the fields that differ in kind.

    A report is a dict, or the JSON text of one (``cli``).
    """
    old, new = (dict(flatten((json.loads(r) if isinstance(r, str) else r) or {}))
                for r in (old, new))
    numeric, other = {}, {}
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if isinstance(a, bool) or isinstance(b, bool) or not (
                isinstance(a, (int, float)) and isinstance(b, (int, float))):
            if a != b:
                other[key] = (a, b)
        else:
            numeric[key] = abs(a - b)
    return numeric, other


def show(values, indent="    "):
    for key, delta in sorted(values.items(), key=lambda kv: (-kv[1], kv[0])):
        if delta:
            print(f"{indent}{key}: {delta:.3g}")


def same(a, b):
    return "identical" if a == b else "differs"


def steps_and_walks(a, b):
    """The dual steps' match and totals, and the walk row sets, on both trees."""
    return (f"dual steps {same(a['steps'], b['steps'])} ({sum(a['steps'])} -> {sum(b['steps'])}), "
            f"walk row sets {a['walk_sets']} -> {b['walk_sets']}")


def compare(old_tree, new_tree, workload, seed):
    old, new = run_child(old_tree, workload, seed), run_child(new_tree, workload, seed)
    print(f"== {workload} (seed {seed})")
    print(f"  peak RSS: {old['maxrss_kib'] / 1024:.1f} -> {new['maxrss_kib'] / 1024:.1f} MiB")
    a, b = old["setup"], new["setup"]
    print(f"  set-up solve paths: {a['paths']} -> {b['paths']}; "
          f"solve digest {same(a['digest'], b['digest'])}, {steps_and_walks(a, b)}")
    mismatched = [] if a["digest"] == b["digest"] else [f"{workload} set-up"]
    stepped = [] if a["steps"] == b["steps"] else [f"{workload} set-up"]
    for a, b in zip(old["cases"], new["cases"]):
        if a["digest"] != b["digest"]:
            mismatched.append(a["name"])
        if a["steps"] != b["steps"]:
            stepped.append(a["name"])
        stdout = f"stdout {same(a['stdout'], b['stdout'])}, " if "stdout" in a else ""
        print(f"  {a['name']}: rounds {a['rounds']} -> {b['rounds']}; "
              f"trace {same(a['csv'], b['csv'])}, report {same(a['report'], b['report'])}, "
              f"{stdout}solve digest {same(a['digest'], b['digest'])}, {steps_and_walks(a, b)}")
        if a["error"] or b["error"]:
            print(f"    errors: {a['error']} -> {b['error']}")
        if a["csv"] != b["csv"]:
            print("    trace columns, max |diff|:")
            show(column_deltas(a["csv"], b["csv"]), "      ")
        if a["report"] != b["report"]:
            numeric, other = report_deltas(a["report"], b["report"])
            print("    report fields, max |diff|:")
            show(numeric, "      ")
            for key, (x, y) in other.items():
                print(f"      {key}: {x!r} -> {y!r}")
        if a.get("stdout") != b.get("stdout"):
            print(f"    stdout: {a['stdout']!r} -> {b['stdout']!r}")
        print(f"    solve paths: {a['paths']} -> {b['paths']}")
    return mismatched, stepped


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="TREE")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--capture", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.capture:
        record = capture(args.capture, args.workload[0], args.seed)
        record["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(record))
        return
    if len(args.trees) != 2:
        parser.error("give two source trees")
    for tree in args.trees:
        print(f"size of {tree}/src/flexmarket: {size(tree)}")
    mismatched, stepped = [], []
    for workload in args.workload or WORKLOADS:
        digests, steps = compare(*args.trees, workload, args.seed)
        mismatched += digests
        stepped += steps
    print("solve digests: " + ("differ on " + ", ".join(mismatched) if mismatched
                               else "all identical"))
    print("dual steps: " + ("differ on " + ", ".join(stepped) if stepped
                            else "all identical"))


if __name__ == "__main__":
    main()
