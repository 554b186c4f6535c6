"""Lines per module under src/longtopic: at a git revision and in the
working tree, with each difference and the totals.

    python tools/loc.py [REV]        # REV defaults to HEAD

A line is a newline character, as `wc -l` counts. The revision is read with
local `git show`; a module present on one side only counts 0 on the other.
Standard library only.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/longtopic"


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def counts_at(rev):
    names = git("ls-tree", "-r", "--name-only", rev, "--", PACKAGE)
    return {name: git("show", f"{rev}:{name}").count(b"\n")
            for name in names.decode().splitlines() if name.endswith(".py")}


def counts_in_tree():
    return {path.relative_to(ROOT).as_posix(): path.read_bytes().count(b"\n")
            for path in (ROOT / PACKAGE).rglob("*.py")}


def main(argv):
    if len(argv) > 1:
        sys.exit("usage: python tools/loc.py [REV]")
    rev = argv[0] if argv else "HEAD"
    try:
        before = counts_at(rev)
    except subprocess.CalledProcessError as e:
        sys.exit(f"git: {e.stderr.decode().strip()}")
    after = counts_in_tree()
    width = max(map(len, before | after))
    print(f"{'module':<{width}}  {rev[:12]:>12}  {'tree':>6}  {'diff':>6}")
    for name in sorted(before | after):
        a, b = before.get(name, 0), after.get(name, 0)
        print(f"{name:<{width}}  {a:>12}  {b:>6}  {b - a:>+6}")
    a, b = sum(before.values()), sum(after.values())
    print(f"{'total':<{width}}  {a:>12}  {b:>6}  {b - a:>+6}")


if __name__ == "__main__":
    main(sys.argv[1:])
