"""Traffic census: the ``src/repro`` defs no production run calls (``make traffic``, ~25 min).

Runs every production consumer (CLI subcommands, the invariant checker, examples, smokes,
the ledger at ``--quick`` sizes and its self-test, ``bench_diff``, ``pairs_report``, and the
paper benchmarks with ``--benchmark-disable``, as pytest-benchmark pauses tracing in timed
bodies) under a call-only ``sys.settrace`` hook, a temporary ``sitecustomize.py`` first on
``PYTHONPATH`` so every child interpreter traces itself; prints the uncalled defs by package."""

import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
HOOK = """import atexit, os, sys
_calls = set()
def _trace(frame, event, arg):
    if event == "call":
        _calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.settrace(_trace)
@atexit.register
def _dump():
    sys.settrace(None)
    with open(os.path.join(os.environ["TRAFFIC_OUT"], f"{os.getpid()}.txt"), "a") as fh:
        fh.writelines(f"{name}\\t{line}\\n" for name, line in _calls)
"""
CLI = [
    "create s --size 16M --shards 2", "create v --size 16M", "info v", "info missing",
    "import v README.md", "export v {tmp}/out.bin --length 64K", "snapshot v s1", "shard-status",
    "clone v c --snapshot s1", "info c", "replicate v {tmp}/rep", "replicate v {tmp}/r2 --shards 2",
    "shard-status v", "fsck v", "fsck v --objects", "scrub v", "stats",
    "stats v --exercise 300", "stats v --format json --out {tmp}/m.json", "stats v --format csv",
    "stats --from-dump {tmp}/m.json", "stats v --format prometheus", "trace v --limit 5",
    "trace v --exercise 600 --type readahead_resize", "spans v --exercise 300 --slowest 1",
    "flightrec dump v --exercise 40 --out {tmp}/b.json", "flightrec dump v",
    "fleet create f --tenant a --iops 100", "fleet status", "fleet recover", "fleet delete f"]
#: the CLI commands that exit 2 by design: an unknown volume, ``stats`` without one
USAGE_ERRORS = {"info missing", "stats"}
LINT = ["src/repro benchmarks examples", "--format json src/repro", "--list-rules", "--explain"]
PYTEST = ["{py}", "-m", "pytest", "-q", "-p", "no:cacheprovider"]
#: (expected exit code, argv) of every production consumer
PRODUCTION = (
    [(2 if cmd in USAGE_ERRORS else 0, ["{py}", "-m", "repro.cli", "{tmp}/bucket", *cmd.split()])
     for cmd in CLI]
    + [(0, argv) for argv in (
        [["{py}", "-m", "repro.lint", *args.split()] for args in LINT]
        + [["{py}", str(p)] for p in sorted((ROOT / "examples").glob("*.py"))]
        + [["{py}", f"benchmarks/{name}_smoke.py", "--out-dir", "{tmp}/out"]
           for name in ("obs", "shard", "pipeline", "fleet", "wa")]
        + [["{py}", "benchmarks/ledger/run.py", "--quick", "--out-dir", "{tmp}/out"],
           # the trace hook inflates per-layer host time past IDLE_SHARE on this one
           # host-clock check; `make ledger` and CI still run it untraced
           PYTEST + ["benchmarks/ledger", "--deselect",
                     "benchmarks/ledger/test_ledger.py::test_idle_layer_predictions_hold[vol-write-churn]"],
           ["{py}", "benchmarks/bench_diff.py", "--bench-dir", "{tmp}/out"],
           ["{py}", "benchmarks/pairs_report.py"],
           PYTEST + ["--benchmark-disable", "benchmarks", "--ignore=benchmarks/ledger"]])]
)


def defs():
    """(path, first line) -> (package, qualname, lines) of every def in src/repro."""
    found = {}

    def visit(node, path, package, prefix):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", "")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = (package, prefix + name, child.end_lineno - first + 1)
            visit(child, path, package, prefix + (name + "." if name else ""))

    for path in sorted(SRC.rglob("*.py")):
        package = path.relative_to(SRC).with_suffix("").parts[0]
        visit(ast.parse(path.read_text("utf-8")), path, package, "")
    return found


def census(commands):
    """Run ``commands`` = [(expected exit code, argv)] under the hook; the defs none of them
    called.  Raises ``SystemExit`` naming every command that exited with another code."""
    with tempfile.TemporaryDirectory() as tmp:
        hook, out = Path(tmp, "hook"), Path(tmp, "hook", "calls")
        out.mkdir(parents=True)
        (hook / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, PYTHONPATH=f"{hook}{os.pathsep}{ROOT / 'src'}",
                   TRAFFIC_OUT=str(out), TMPDIR=tmp)
        wrong = []
        for expected, argv in commands:
            argv = [arg.format(py=sys.executable, tmp=tmp) for arg in argv]
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True)
            print(f"[exit {done.returncode}] {' '.join(argv[1:])}", file=sys.stderr)
            if done.returncode != expected:
                wrong.append(f"exit {done.returncode}, not {expected}: {' '.join(argv[1:])}")
        if wrong:
            raise SystemExit("traffic census failed:\n" + "\n".join(wrong))
        rows = [row.rpartition("\t") for f in out.iterdir() for row in f.read_text().splitlines()]
    called = {(name, int(line)) for name, _, line in rows}
    return {key: info for key, info in defs().items() if key not in called}


if __name__ == "__main__":
    everything, uncalled = defs(), census(PRODUCTION)
    by_package = defaultdict(list)
    for (path, line), (package, qualname, size) in sorted(uncalled.items()):
        by_package[package].append(f"  {os.path.relpath(path, ROOT)}:{line} {qualname} ({size})")
    for package, found in sorted(by_package.items()):
        print(f"{package}: {len(found)} defs\n" + "\n".join(found))
    sizes = [sum(info[2] for info in d.values()) for d in (uncalled, everything)]
    print(f"uncalled: {len(uncalled)} of {len(everything)} defs, {sizes[0]} of {sizes[1]} lines")
