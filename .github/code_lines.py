#!/usr/bin/env python3
"""Count the non-test lines of Rust code the ROADMAP tracks.

Usage: python3 .github/code_lines.py [REPO_ROOT]

Counts `*.rs` files under `crates/`, `src/` and `shims/`, skipping any
`tests/` or `benches/` directory. A line counts unless it is blank, holds
only comments (`//`, `///`, `//!`, `/* */`), or is part of a
`#[cfg(test)]` item. Two cases are stated:

* A `#[cfg(test)]` item ends where its braces balance (or at its `;` when
  it has no body), ignoring braces inside string and char literals and
  comments, so `b'{'` in test code does not swallow the code after it.
* A file reached only through `#[cfg(test)] mod x;` (such as
  `crates/lang/src/lane_tests.rs`) does not count.

Prints the total, then one line per crate (largest first). Exits 0.
"""

import re
import sys
from pathlib import Path

ROOTS = ("crates", "src", "shims")
SKIP_DIRS = {"tests", "benches", "target"}


def mask_literals(text):
    """`text` with comments blanked and the contents of string and char
    literals replaced by `_` (newlines kept): a line is code when anything
    but spaces remains, and braces and semicolons in what remains are
    code."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b, fill="_"):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = fill

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j, " ")
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            blank(i, j, " ")
            i = j
        elif c == "r" and re.match(r'r#*"', text[i:]) and not (
            i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_") and text[i - 1] != "b"
        ):
            hashes = len(re.match(r"r(#*)", text[i:]).group(1))
            start = i + 1 + hashes + 1
            close = '"' + "#" * hashes
            j = text.find(close, start)
            j = n if j < 0 else j + len(close)
            blank(start, j - len(close))
            i = j
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, j)
            i = j + 1
        elif c == "'":
            if i + 1 < n and text[i + 1] == "\\":
                j = text.find("'", i + 2)
                j = n if j < 0 else j
                blank(i + 1, j)
                i = j + 1
            elif i + 2 < n and text[i + 2] == "'":
                blank(i + 1, i + 2)
                i += 3
            else:
                i += 1  # a lifetime
        else:
            i += 1
    return "".join(out)


def test_item_lines(lines, masked):
    """Indices of the lines that belong to `#[cfg(test)]` items, and the
    names of the modules declared `#[cfg(test)] mod name;`."""
    skip, test_mods = set(), []
    i = 0
    while i < len(lines):
        if lines[i].strip() != "#[cfg(test)]":
            i += 1
            continue
        depth, opened, j = 0, False, i
        while j < len(lines):
            skip.add(j)
            done = False
            for ch in masked[j]:
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
                    if opened and depth == 0:
                        done = True
                        break
                elif ch == ";" and depth == 0 and not opened:
                    done = True
                    break
            if done:
                break
            j += 1
        item = "\n".join(lines[i + 1 : j + 1])
        m = re.match(r"\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;", item)
        if m and not opened:
            test_mods.append(m.group(1))
        i = j + 1
    return skip, test_mods


def count_file(path):
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    masked = mask_literals(text).split("\n")
    skip, test_mods = test_item_lines(lines, masked)
    count = sum(1 for k, code in enumerate(masked) if k not in skip and code.strip())
    return count, test_mods


def module_dir(path):
    """The directory a file's `mod x;` declarations resolve against."""
    if path.name in ("lib.rs", "main.rs", "mod.rs"):
        return path.parent
    return path.parent / path.stem


def crate_name(root, path):
    rel = path.relative_to(root).parts
    manifest = root / rel[0] / rel[1] / "Cargo.toml" if rel[0] != "src" else root / "Cargo.toml"
    m = re.search(r'^\[package\][^\[]*?^name\s*=\s*"([^"]+)"', manifest.read_text(), re.M | re.S)
    return m.group(1) if m else "/".join(rel[:2])


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    files = []
    for top in ROOTS:
        for p in sorted((root / top).rglob("*.rs")):
            if SKIP_DIRS.isdisjoint(p.relative_to(root).parts):
                files.append(p)
    counts, excluded = {}, set()
    for p in files:
        counts[p], mods = count_file(p)
        for name in mods:
            excluded.update({module_dir(p) / f"{name}.rs", module_dir(p) / name / "mod.rs"})
    per_crate = {}
    for p, c in counts.items():
        if p in excluded:
            continue
        name = crate_name(root, p)
        per_crate[name] = per_crate.get(name, 0) + c
    print(f"non-test Rust code lines: {sum(per_crate.values())}")
    for name, c in sorted(per_crate.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {name:<16} {c:>6}")


if __name__ == "__main__":
    main()
