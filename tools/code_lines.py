"""Count the code lines of Python sources: lines that hold a token other
than a comment, a docstring or layout (blank lines, newlines, indents).

    python tools/code_lines.py [PATH ...]     # default: src

Each PATH is a file or a directory searched for ``*.py``.  Prints one count
per file and the total on the last line.
"""

import sys
import token
import tokenize
from pathlib import Path

# tokens that carry no code; NEWLINE, which ends a statement, is kept
SKIP = {token.COMMENT, token.NL, token.INDENT, token.DEDENT, token.ENCODING, token.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that carry code."""
    lines: set[int] = set()
    with path.open("rb") as fh:
        toks = [t for t in tokenize.tokenize(fh.readline) if t.type not in SKIP]
    for i, tok in enumerate(toks):
        if tok.type == token.NEWLINE:
            continue
        # a docstring is a string that makes up a whole statement
        alone = (tok.type == token.STRING and (i == 0 or toks[i - 1].type == token.NEWLINE)
                 and (i + 1 == len(toks) or toks[i + 1].type == token.NEWLINE))
        if not alone:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src"]:
        root = Path(arg)
        files += sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
