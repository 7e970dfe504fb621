#!/usr/bin/env python3
"""Documentation checks for CI's docs job.

1. Link check: every relative markdown link in README.md and docs/*.md
   must resolve to an existing file or directory (external http(s) /
   mailto links and pure #anchors are skipped — CI must not depend on
   the network).
2. Snippet compile check: every ```cpp fenced block is wrapped in a
   translation unit (common includes + a small preamble declaring the
   free names snippets conventionally use, e.g. `query`) and compiled
   with `-fsyntax-only` against the real headers, so the README can
   never drift from the actual API.
3. Source path check: every backticked token outside fenced blocks that
   contains a `/` and ends in `.h`, `.cpp`, `.py` or `.*` (e.g.
   `columnar/plan_exec.h`, `engine/spill.*`) must glob to an existing
   file under the repo root, `src/` or `src/engine/`, so the docs never
   name a source file that was moved or deleted.

Exit status 0 iff everything passes. No third-party dependencies.
"""

import argparse
import glob
import os
import re
import subprocess
import sys
import tempfile

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\w*)\s*$")
CODE_SPAN_RE = re.compile(r"`([^`\s]+)`")
SOURCE_SUFFIXES = (".h", ".cpp", ".py", ".*")
SOURCE_BASES = ("", "src", os.path.join("src", "engine"))

# The wrapper TU every ```cpp snippet is compiled inside. The preamble
# declares the free variables snippets use by convention; snippets that
# re-declare them simply shadow the preamble (an inner scope).
SNIPPET_PRELUDE = """\
#include <string>
#include <vector>

#include "src/api/paper_queries.h"
#include "src/api/processor.h"
#include "src/engine/database.h"

using namespace xqjg;

[[maybe_unused]] static void doc_snippet_{index}() {{
  [[maybe_unused]] std::string query = "//item";
  [[maybe_unused]] api::PrepareOptions prep;
  {{
{body}
  }}
}}
"""


def check_links(md_path, repo_root):
    errors = []
    base = os.path.dirname(md_path)
    with open(md_path, encoding="utf-8") as f:
        in_fence = False
        for lineno, line in enumerate(f, 1):
            if FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = os.path.normpath(os.path.join(base, path))
                if not os.path.exists(resolved):
                    rel = os.path.relpath(md_path, repo_root)
                    errors.append(
                        f"{rel}:{lineno}: broken link '{target}' "
                        f"(no such file: {os.path.relpath(resolved, repo_root)})"
                    )
    return errors


def check_source_paths(md_path, repo_root):
    errors = []
    with open(md_path, encoding="utf-8") as f:
        in_fence = False
        for lineno, line in enumerate(f, 1):
            if FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for token in CODE_SPAN_RE.findall(line):
                if "/" not in token or not token.endswith(SOURCE_SUFFIXES):
                    continue
                if not any(
                    os.path.isfile(match)
                    for base in SOURCE_BASES
                    for match in glob.glob(
                        os.path.join(repo_root, base, token), recursive=True
                    )
                ):
                    rel = os.path.relpath(md_path, repo_root)
                    errors.append(
                        f"{rel}:{lineno}: stale source path '{token}' (no "
                        f"match under ., src/ or src/engine/)"
                    )
    return errors


def extract_snippets(md_path, language):
    snippets = []
    lines = []
    in_block = None
    start = 0
    with open(md_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            fence = FENCE_RE.match(line)
            if fence and in_block is None:
                in_block = fence.group(1)
                start = lineno + 1
                lines = []
            elif fence:
                if in_block == language:
                    snippets.append((start, "".join(lines)))
                in_block = None
            elif in_block is not None:
                lines.append(line)
    return snippets


def compile_snippets(md_path, repo_root, compiler):
    errors = []
    snippets = extract_snippets(md_path, "cpp")
    rel = os.path.relpath(md_path, repo_root)
    for index, (lineno, body) in enumerate(snippets):
        indented = "\n".join(
            "    " + l if l.strip() else l for l in body.rstrip().splitlines()
        )
        source = SNIPPET_PRELUDE.format(index=index, body=indented)
        with tempfile.NamedTemporaryFile(
            "w", suffix=".cpp", prefix="doc_snippet_", delete=False
        ) as tu:
            tu.write(source)
            tu_path = tu.name
        try:
            proc = subprocess.run(
                [compiler, "-std=c++20", "-fsyntax-only", "-Wall",
                 f"-I{repo_root}", tu_path],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                errors.append(
                    f"{rel}:{lineno}: snippet does not compile:\n"
                    f"{proc.stderr.strip()}\n--- wrapped snippet ---\n{source}"
                )
            else:
                print(f"  {rel}:{lineno}: snippet compiles")
        finally:
            os.unlink(tu_path)
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--repo-root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    ap.add_argument("--compiler", default=os.environ.get("CXX", "c++"))
    ap.add_argument(
        "--skip-compile",
        action="store_true",
        help="link-check only (no C++ toolchain available)",
    )
    args = ap.parse_args()

    docs = [os.path.join(args.repo_root, "README.md")]
    docs += sorted(glob.glob(os.path.join(args.repo_root, "docs", "*.md")))
    errors = []
    for md in docs:
        print(f"checking {os.path.relpath(md, args.repo_root)}")
        errors += check_links(md, args.repo_root)
        errors += check_source_paths(md, args.repo_root)
        if not args.skip_compile:
            errors += compile_snippets(md, args.repo_root, args.compiler)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        print(f"\n{len(errors)} documentation problem(s)", file=sys.stderr)
        return 1
    print(f"OK: {len(docs)} file(s) checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
