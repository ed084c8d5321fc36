#!/usr/bin/env python3
"""Print the design counts the ROADMAP's *State* tracks, one `name: count` a line.

    python scripts/design_counts.py

* src_lines, test_lines: lines in the library's `src/` (its Python and C
  files) and in `tests/*.py`;
* defaulted_parameters: parameters with a default value, counted with `ast`
  over each `def` in `src/` (positional and keyword-only alike);
* settable_kind_keys: the (kind, key) pairs a config can set, from
  `config.KIND_KEYS`;
* error_classes: the subclasses of `KernelBenchError`.

It takes no flags and reads the checkout it lives in.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from kernelbench import errors  # noqa: E402
from kernelbench.config import KIND_KEYS  # noqa: E402


def _lines(paths) -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in paths)


def _defaulted_parameters(paths) -> int:
    count = 0
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def counts() -> dict[str, int]:
    src = sorted((ROOT / "src").rglob("*.py"))
    return {
        "src_lines": _lines(src + sorted((ROOT / "src").rglob("*.c"))),
        "test_lines": _lines(sorted((ROOT / "tests").glob("*.py"))),
        "defaulted_parameters": _defaulted_parameters(src),
        "settable_kind_keys": sum(len(keys) for keys in KIND_KEYS.values()),
        "error_classes": sum(isinstance(value, type) and issubclass(value, errors.KernelBenchError)
                             and value is not errors.KernelBenchError
                             for value in vars(errors).values()),
    }


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n", 1)[0]).parse_args()
    for name, count in counts().items():
        print(f"{name}: {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
