"""Refusal and line census: which `raise` and `return None` sites, and which
executable lines, in src/speccon tier-1 reaches.

Run it as `python tools/census.py`, from any directory. It writes a
`sitecustomize.py` into a temporary directory and puts that directory first on
PYTHONPATH, so the pytest process and every Python subprocess that inherits
the variable trace the lines they run in src/speccon with `sys.settrace`. It
then runs tier-1 (`pytest -q -p no:cacheprovider`, whatever its outcome),
merges the lines each process reached, and prints each site no process reached,
then each executable line no process ran; it exits 1 if there is either. A
site counts as reached when any line of its statement ran. The executable
lines are those of every code object compiled from the file, nested ones
included, by `co_lines()`, line 0 skipped. A subprocess started with a
PYTHONPATH of its own is not traced.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SITE = """\
import atexit, json, os, sys, threading
_root, _out, _hits = {root!r}, {out!r}, {{}}

def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_root):
        return None
    lines = _hits.setdefault(name, set())
    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local

def _dump():
    sys.settrace(None)
    with open(os.path.join(_out, f"{{os.getpid()}}.json"), "w") as fh:
        json.dump({{k: sorted(v) for k, v in _hits.items()}}, fh)

atexit.register(_dump)
sys.settrace(_trace)
threading.settrace(_trace)
"""


def sites(src: Path):
    """(path, first line, last line, first source line) of every `raise` and
    every `return None`; a bare `return` is not a refusal."""
    out = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            refusal = isinstance(node, ast.Raise) or (
                isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                and node.value.value is None)
            if refusal:
                out.append((str(path.resolve()), node.lineno, node.end_lineno,
                            ast.get_source_segment(text, node).splitlines()[0]))
    return sorted(out)


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from ``path`` runs."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def main() -> int:
    repo = Path(__file__).resolve().parents[1]
    src = repo / "src" / "speccon"
    with tempfile.TemporaryDirectory() as tmp:
        hits_dir = Path(tmp) / "hits"
        hits_dir.mkdir()
        (Path(tmp) / "sitecustomize.py").write_text(
            SITE.format(root=str(src.resolve()), out=str(hits_dir)), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (tmp, str(repo / "src"), env.get("PYTHONPATH")) if p)
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors"],
                             cwd=repo, env=env, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        summary = lines[-1:] or ["(no pytest output)"]
        failed = [line for line in lines if line.startswith("FAILED ")]
        reached: dict[str, set[int]] = {}
        for part in hits_dir.glob("*.json"):
            for name, hit in json.loads(part.read_text(encoding="utf-8")).items():
                reached.setdefault(name, set()).update(hit)
        processes = len(list(hits_dir.glob("*.json")))
    all_sites = sites(src)
    missed = [s for s in all_sites
              if not reached.get(s[0], set()) & set(range(s[1], s[2] + 1))]
    print(f"pytest: {summary[0]}")
    for line in failed:
        print(f"  {line}")
    print(f"processes traced: {processes}")
    print(f"refusal sites: {len(all_sites)}, reached: {len(all_sites) - len(missed)}, "
          f"unreached: {len(missed)}")
    for path, first, _, text in missed:
        print(f"  {Path(path).relative_to(repo)}:{first}: {text.strip()}")
    unrun = [(path, line) for path in sorted(src.glob("*.py"))
             for line in sorted(executable_lines(path) - reached.get(str(path.resolve()), set()))]
    print(f"executable lines not run: {len(unrun)}")
    for path, line in unrun:
        print(f"  {path.relative_to(repo)}:{line}: {path.read_text(encoding='utf-8').splitlines()[line - 1].strip()}")
    return 1 if missed or unrun else 0


if __name__ == "__main__":
    sys.exit(main())
