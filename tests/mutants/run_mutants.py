#!/usr/bin/env python3
"""Runs the planted mutants of mutants.tsv against the test suite.

The tree is copied to a work directory (build directories and .git left
out), built once and tested once unmutated; every suite must pass there.
Then each mutant is applied alone: its file is edited, the tree rebuilt
incrementally, `ctest` run, and the file restored. For each mutant the
script prints the suites that failed (with their failing gtest cases) and
whether that matches the list's expectation.

    python3 tests/mutants/run_mutants.py            # every mutant
    python3 tests/mutants/run_mutants.py E1 S1      # only these ids
    python3 tests/mutants/run_mutants.py --tree ../other-checkout

Options: --tree DIR (the tree to copy, default this repo), --list FILE
(default the mutants.tsv beside this script), --work DIR (kept afterwards;
default a temporary directory, removed at the end). Builds and ctest run
one job per CPU; a suite that runs past SUITE_TIMEOUT_S counts as failed.
The full ctest log of each mutant is written to WORK/logs/ID.log.

Exit status: 0 when every mutant behaves as listed (each `kill:` mutant is
killed by at least the suites named, each `equivalent:` one by none), 1
otherwise, 2 when the unmutated tree does not build or pass.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
JOBS = str(os.cpu_count() or 1)
# Guards against a mutant that makes a suite loop forever.
SUITE_TIMEOUT_S = 600


def unescape(text):
    out = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"n": "\n", "t": "\t", "\\": "\\"}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def load_mutants(path):
    mutants = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                sys.exit(f"{path}:{lineno}: want 5 tab-separated fields, "
                         f"got {len(fields)}")
            ident, file, search, replace, expect = fields
            kind, _, rest = expect.partition(":")
            if kind not in ("kill", "equivalent") or not rest.strip():
                sys.exit(f"{path}:{lineno}: expectation must be "
                         f"'kill: <suites>' or 'equivalent: <why>'")
            mutants.append({
                "id": ident,
                "file": file,
                "search": unescape(search),
                "replace": unescape(replace),
                "kind": kind,
                "expect": rest.split() if kind == "kill" else rest.strip(),
            })
    return mutants


def run(cmd, cwd, log=None):
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if log is not None:
        with open(log, "w", encoding="utf-8") as f:
            f.write(proc.stdout)
    return proc.returncode, proc.stdout


def build(build_dir, log):
    code, _ = run(["cmake", "--build", build_dir, "-j", JOBS],
                  cwd=build_dir, log=log)
    return code == 0


def failing_suites(build_dir, log):
    """{suite: [failing gtest cases]} from one ctest run."""
    _, out = run(["ctest", "-j", JOBS, "--timeout", str(SUITE_TIMEOUT_S),
                  "--output-on-failure"], cwd=build_dir, log=log)
    failed = {}
    listing = out.split("The following tests FAILED:")
    if len(listing) > 1:
        for m in re.finditer(r"^\s*\d+ - (\S+) \(", listing[1], re.M):
            failed[m.group(1)] = []
    # Attribute each gtest "[  FAILED  ]" summary line to the suite whose
    # output block it sits in (ctest prints one block per finished test).
    current = None
    for line in listing[0].splitlines():
        header = re.search(r"Test\s+#\d+: (\S+) \.", line)
        if header:
            current = header.group(1)
            continue
        case = re.match(r"\[  FAILED  \] ([^ ,]+\.[^ ,]+)", line)
        if case and current in failed:
            if case.group(1) not in failed[current]:
                failed[current].append(case.group(1))
    return failed


def describe(failed):
    if not failed:
        return "none"
    parts = []
    for suite in sorted(failed):
        cases = failed[suite]
        shown = ", ".join(cases[:3]) + (", ..." if len(cases) > 3 else "")
        parts.append(f"{suite} ({len(cases)}: {shown})" if cases else suite)
    return "; ".join(parts)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="mutant ids (default: all)")
    parser.add_argument("--tree", default=REPO)
    parser.add_argument("--work")
    parser.add_argument("--list", default=os.path.join(HERE, "mutants.tsv"))
    args = parser.parse_args()

    mutants = load_mutants(args.list)
    if args.ids:
        unknown = set(args.ids) - {m["id"] for m in mutants}
        if unknown:
            sys.exit(f"unknown mutant ids: {' '.join(sorted(unknown))}")
        mutants = [m for m in mutants if m["id"] in args.ids]

    work = args.work or tempfile.mkdtemp(prefix="msol-mutants-")
    src = os.path.join(work, "src")
    build_dir = os.path.join(work, "build")
    logs = os.path.join(work, "logs")
    try:
        if os.path.exists(src):
            shutil.rmtree(src)
        shutil.copytree(os.path.abspath(args.tree), src, symlinks=True,
                        ignore=shutil.ignore_patterns(".git", "build*"))
        os.makedirs(logs, exist_ok=True)
        os.makedirs(build_dir, exist_ok=True)
        code, _ = run(["cmake", "-S", src, "-B", build_dir,
                       "-DMSOL_BUILD_BENCH=OFF", "-DMSOL_BUILD_EXAMPLES=OFF"],
                      cwd=work, log=os.path.join(logs, "configure.log"))
        if code != 0 or not build(build_dir, os.path.join(logs, "build.log")):
            print(f"unmutated tree does not build (see {logs})")
            return 2
        baseline = failing_suites(build_dir,
                                  os.path.join(logs, "baseline.log"))
        if baseline:
            print(f"unmutated tree fails: {describe(baseline)}")
            return 2

        bad = 0
        for m in mutants:
            path = os.path.join(src, m["file"])
            with open(path, encoding="utf-8") as f:
                original = f.read()
            count = original.count(m["search"])
            if count != 1:
                print(f"{m['id']}: STALE (search text found {count} times "
                      f"in {m['file']})")
                bad += 1
                continue
            with open(path, "w", encoding="utf-8") as f:
                f.write(original.replace(m["search"], m["replace"]))
            try:
                if build(build_dir,
                         os.path.join(logs, m["id"] + ".build.log")):
                    failed = failing_suites(build_dir,
                                            os.path.join(logs,
                                                         m["id"] + ".log"))
                else:
                    failed = {"<build>": []}
            finally:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(original)
            if m["kind"] == "kill":
                missing = [s for s in m["expect"] if s not in failed]
                ok = not missing and "<build>" not in failed
                verdict = ("ok" if ok else
                           "MISMATCH (not killed by " +
                           (" ".join(missing) or "a test: build failed") + ")")
            else:
                ok = not failed
                verdict = "ok (equivalent)" if ok else "MISMATCH (killed)"
            if not ok:
                bad += 1
            print(f"{m['id']}: killed by {describe(failed)} -> {verdict}",
                  flush=True)
        # Leave the last build matching the unmutated sources.
        build(build_dir, os.path.join(logs, "final-build.log"))
        return 1 if bad else 0
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
