#!/usr/bin/env python3
"""Fail when a `go test` -run, -bench or -fuzz pattern in the CI workflow
matches no test, benchmark or fuzz target in the packages it names.

`go test -run X` passes silently when X matches nothing, so a renamed or
deleted test would drop out of a CI gate unnoticed. Each top-level `|`
alternative of a pattern must match something in at least one of the
command's packages, listed with `go test -list`. The pattern `^$` (run
nothing) is exempt.

Usage: python3 .github/scripts/check_test_patterns.py [.github/workflows/ci.yml]
"""
import re
import shlex
import subprocess
import sys

FLAGS = ("-run", "-bench", "-fuzz")
STOP = {"|", "||", "&&", ";", ">", "2>&1"}


def commands(path):
    """Yield the argument lists of every `go test` command in path."""
    text = open(path).read().replace("\\\n", " ")
    for line in text.splitlines():
        i = line.find("go test ")
        if i < 0:
            continue
        args = []
        for tok in shlex.split(line[i + len("go test "):]):
            if tok in STOP:
                break
            args.append(tok)
        yield args


def parse(args):
    """Return ([(flag, pattern)], [package]) of one go test command."""
    pats, pkgs = [], []
    i = 0
    while i < len(args):
        a = args[i]
        name, eq, val = a.partition("=")
        if name in FLAGS:
            if not eq:
                i += 1
                val = args[i]
            pats.append((name, val))
        elif a == "." or a.startswith("./"):
            pkgs.append(a)
        i += 1
    return pats, pkgs


def alternatives(pattern):
    """Split a regexp at its top-level | (outside groups and classes)."""
    out, depth, cls, cur = [], 0, False, ""
    i = 0
    while i < len(pattern):
        c = pattern[i]
        if c == "\\" and i + 1 < len(pattern):
            cur += pattern[i:i + 2]
            i += 2
            continue
        if cls:
            cls = c != "]"
        elif c == "[":
            cls = True
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "|" and depth == 0:
            out.append(cur)
            cur = ""
            i += 1
            continue
        cur += c
        i += 1
    out.append(cur)
    return out


listed = {}


def listing(pkg):
    if pkg not in listed:
        r = subprocess.run(["go", "test", "-list", ".", pkg], capture_output=True, text=True)
        if r.returncode != 0:
            sys.exit("go test -list . %s failed:\n%s%s" % (pkg, r.stdout, r.stderr))
        listed[pkg] = [l for l in r.stdout.splitlines() if re.match(r"(Test|Benchmark|Fuzz|Example)\w*$", l)]
    return listed[pkg]


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else ".github/workflows/ci.yml"
    bad = 0
    checked = 0
    for args in commands(path):
        pats, pkgs = parse(args)
        for flag, pat in pats:
            if pat == "^$":
                continue
            for alt in alternatives(pat):
                # go test matches the top-level name against the part of the
                # pattern before any "/" (subtest selectors).
                top = alt.split("/")[0]
                rx = re.compile(top)
                checked += 1
                if not any(rx.search(name) for pkg in pkgs for name in listing(pkg)):
                    print("%s %r matches nothing in %s" % (flag, alt, " ".join(pkgs)))
                    bad += 1
    print("checked %d patterns, %d unmatched" % (checked, bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
