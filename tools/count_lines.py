"""Count the lines of each module in src/auctionlab.

Prints, per module and in total, the line count `wc -l` gives and the code
lines: lines holding a token that is neither a comment nor part of a
module, class or function docstring. Two last lines give the number of
public names, len(__all__) in the package's __init__.py, and of config
fields, the fields a caller sets on the dataclasses whose names end in
Config or Params; both are read without importing the package. Run from
the repository root:

    python tools/count_lines.py [directory]
"""

import ast
import io
import pathlib
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of the module, its classes and its functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(wc -l lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED and tok.start[0] not in docs:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def exported_names(source: str) -> int:
    """len(__all__) of a module's source; 0 when it assigns no __all__."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return len(node.value.elts)
    return 0


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _init_false(value: ast.expr | None) -> bool:
    """Whether a field's default is a field(..., init=False) call."""
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False for k in value.keywords
    )


def config_fields(source: str) -> int:
    """Init fields of a module's *Config and *Params dataclasses: annotated
    class-body names, less those declared field(init=False)."""
    return sum(
        isinstance(stmt, ast.AnnAssign) and not _init_false(stmt.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name.endswith(("Config", "Params")) and _is_dataclass(node)
        for stmt in node.body
    )


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[0] if argv else "src/auctionlab")
    total_lines = total_code = settable = 0
    print(f"{'module':<16} {'wc -l':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, code = count(source)
        total_lines, total_code = total_lines + lines, total_code + code
        settable += config_fields(source)
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")
    init = root / "__init__.py"
    names = exported_names(init.read_text(encoding="utf-8")) if init.exists() else 0
    print(f"{'__all__ names':<16} {names:>6}")
    print(f"{'config fields':<16} {settable:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
