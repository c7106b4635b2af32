#!/usr/bin/env python3
"""sct_check — the repo's own determinism invariants, enforced at compile time.

The byte-identity guarantees CI relies on (warm flow == cold flow, daemon ==
CLI, scenario matrix cmp) hold only if every artifact and report is a pure
function of its inputs. No off-the-shelf tool knows the project's rules, so
this pass enforces them over the whole build (DESIGN.md §16):

  det.unordered-in-serializer
      No std::unordered_map / std::unordered_set use inside serialization /
      report / codec translation units. Hash-order iteration would make
      output bytes depend on pointer values and libstdc++ versions; ordered
      output must come from sorted containers or an explicit sort.
  det.wallclock
      No std::rand / srand / std::random_device / time() / gettimeofday /
      clock_gettime / chrono *_clock::now() outside src/obs/ and tools/.
      Wall-clock reads anywhere else can leak into artifact bytes. (The obs
      subsystem is exempt by design: traces and metrics are specified to
      never change results.)
  det.raw-rng
      No raw numeric::Rng construction outside src/numeric/. Monte-Carlo
      streams must be derived through the counter-based child() / fork()
      discipline from an explicit seed root; ad-hoc generators break the
      any-thread-count bit-identity contract. Documented seed roots are
      allowlisted with a justification.
  det.raw-gformat
      Every %g-family printf conversion must be the canonical "%.17g"
      (text::canonicalPrecision). Any other precision silently truncates
      and breaks round-trip parsing of serialized doubles.

Driving: `-p BUILD_DIR` reads BUILD_DIR/compile_commands.json (exported by
the default CMake configure) and analyzes every translation unit under src/
and tools/ plus every project header under src/. `--files ...` analyzes an
explicit list instead (used by the fixture tests).

Front end: a built-in C++ lexer (comments dropped, string/raw-string
literals kept whole) feeds the rule engine, so the checker needs nothing
beyond the Python standard library.

Findings mirror the src/lint diagnostic format:
  error: [det.wallclock] src/foo.cpp:42: <message>
and --json emits the lint JSON shape. Exit codes mirror `sctune lint`:
0 clean (suppressions allowed), 3 findings, 2 usage error.

Allowlist: a checked-in file of `rule  path-suffix  reason...` lines; a
matching finding is reported as `note: ... suppressed by allowlist (reason)`
— never silent — and an allowlist entry that suppresses nothing is itself
an error (stale suppressions must be pruned).
"""

import argparse
import json
import os
import re
import sys
from collections import namedtuple

# --------------------------------------------------------------------------
# Configuration: which files count as serialization/report/codec units, and
# which subtrees are exempt from which rules. Paths are repo-relative with
# forward slashes.

SERIALIZER_BASENAME_RE = re.compile(
    r"(_io\.(cpp|hpp)$|codecs|binary_format|report|flow_job|scenario"
    r"|metrics|trace|text_format|fields|protocol|jobs|tuner)"
)

#: det.wallclock does not apply here: obs reads clocks by design (and is
#: specified to never change results); tools/ hosts the CLIs whose
#: wall-clock use (bench timing, daemon deadlines) stays outside artifacts.
WALLCLOCK_EXEMPT_PREFIXES = ("src/obs/", "tools/")

#: det.raw-rng does not apply inside the generator's own subsystem.
RAW_RNG_EXEMPT_PREFIXES = ("src/numeric/",)

#: Only these subtrees are analyzed at all.
ANALYZED_PREFIXES = ("src/", "tools/")

CANONICAL_G_FORMAT = "%.17g"

WALLCLOCK_CALLS = {"rand", "srand", "time", "gettimeofday", "clock_gettime"}
PRINTF_FAMILY = {"snprintf", "sprintf", "printf", "fprintf", "vsnprintf"}
UNORDERED_CONTAINERS = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
}

Token = namedtuple("Token", ["kind", "text", "line"])  # kind: id|num|str|punct
Finding = namedtuple("Finding", ["rule", "path", "line", "message"])

# --------------------------------------------------------------------------
# Front ends: both produce a list[Token] with comments stripped and string
# literals preserved (the gformat rule needs them).

_LEXER_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*(?:[^*]|\*(?!/))*\*/)
  | (?P<rawstr>R"(?P<delim>[^()\\ ]{0,16})\((?:.|\n)*?\)(?P=delim)")
  | (?P<str>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<num>\.?[0-9](?:[0-9a-fA-F'.xXbBuUlLpP]|[eE][+-]?)*)
  | (?P<punct>::|->\*?|\+\+|--|<<=?|>>=?|<=|>=|==|!=|&&|\|\||\.\.\.
      |[-+*/%^&|~!<>=?:;,.(){}\[\]\#\\@])
    """,
    re.VERBOSE,
)


def lex(text):
    """Built-in C++ lexer: comments dropped, everything else tokenized."""
    tokens = []
    line = 1
    pos = 0
    end = len(text)
    while pos < end:
        m = _LEXER_RE.match(text, pos)
        if m is None:  # unrecognized byte (stray backtick etc.): skip it
            if text[pos] == "\n":
                line += 1
            pos += 1
            continue
        kind = m.lastgroup
        chunk = m.group(0)
        if kind == "delim":
            kind = "rawstr"
        if kind == "ws" or kind == "comment":
            pass
        elif kind in ("str", "rawstr"):
            tokens.append(Token("str", chunk, line))
        elif kind == "id":
            tokens.append(Token("id", chunk, line))
        elif kind == "num":
            tokens.append(Token("num", chunk, line))
        else:
            tokens.append(Token("punct", chunk, line))
        line += chunk.count("\n")
        pos = m.end()
    return tokens


# --------------------------------------------------------------------------
# Rule engine: each rule walks the token stream of one file.


def is_serializer(rel_path):
    return bool(SERIALIZER_BASENAME_RE.search(os.path.basename(rel_path)))


def check_unordered(rel_path, tokens, findings):
    if not is_serializer(rel_path):
        return
    seen_lines = set()
    for tok in tokens:
        if tok.kind == "id" and tok.text in UNORDERED_CONTAINERS:
            if tok.line in seen_lines:
                continue
            seen_lines.add(tok.line)
            findings.append(Finding(
                "det.unordered-in-serializer", rel_path, tok.line,
                "std::" + tok.text + " in a serialization/report/codec unit: "
                "hash order is nondeterministic across runs and libstdc++ "
                "versions; use a sorted container or sort before emitting"))


def check_wallclock(rel_path, tokens, findings):
    if rel_path.startswith(WALLCLOCK_EXEMPT_PREFIXES):
        return
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != "id":
            continue
        nxt = tokens[i + 1] if i + 1 < n else None
        prev = tokens[i - 1] if i > 0 else None
        if tok.text == "random_device":
            findings.append(Finding(
                "det.wallclock", rel_path, tok.line,
                "std::random_device is nondeterministic entropy; derive "
                "streams from an explicit seed via numeric::Rng"))
            continue
        if nxt is None or not (nxt.kind == "punct" and nxt.text == "("):
            continue
        if tok.text == "now":
            # match ...::now( — any chrono/steady/file clock
            if prev is not None and prev.kind == "punct" and prev.text == "::":
                findings.append(Finding(
                    "det.wallclock", rel_path, tok.line,
                    "clock read (::now()) outside src/obs and tools: "
                    "wall-clock values must never reach artifact or report "
                    "bytes"))
            continue
        if tok.text in WALLCLOCK_CALLS:
            # `x.time(`, `x->time(` are member calls, not ::time / time()
            if prev is not None and prev.kind == "punct" and prev.text in (
                    ".", "->"):
                continue
            findings.append(Finding(
                "det.wallclock", rel_path, tok.line,
                tok.text + "() is a nondeterministic source outside src/obs "
                "and tools; use explicit seeds / deterministic inputs"))


def check_raw_rng(rel_path, tokens, findings):
    if rel_path.startswith(RAW_RNG_EXEMPT_PREFIXES):
        return
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text != "Rng":
            continue
        prev = tokens[i - 1] if i > 0 else None
        if prev is not None and prev.kind == "id" and prev.text in (
                "struct", "class", "typename"):
            continue  # type definition / dependent-name use, not a ctor
        nxt = tokens[i + 1] if i + 1 < n else None
        if nxt is None:
            continue
        constructed = False
        if nxt.kind == "punct" and nxt.text in ("(", "{"):
            constructed = True  # temporary: Rng(seed)
        elif nxt.kind == "id":
            after = tokens[i + 2] if i + 2 < n else None
            if after is not None and after.kind == "punct" and after.text in (
                    "(", "{"):
                constructed = True  # declaration: Rng name(seed)
        if constructed:
            findings.append(Finding(
                "det.raw-rng", rel_path, tok.line,
                "raw numeric::Rng construction outside src/numeric: derive "
                "streams with child()/fork() from a documented seed root "
                "(allowlisted roots carry a justification)"))


_G_CONVERSION_RE = re.compile(r"%[-+ #0-9.*]*[a-zA-Z]")


def check_gformat(rel_path, tokens, findings):
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text not in PRINTF_FAMILY:
            continue
        # collect the string literals of the call's format argument: scan to
        # the closing paren at depth 0, remembering every string literal —
        # the format is the first one (printf) or the first after the size
        # argument; checking every literal in the call is a safe
        # over-approximation since non-format strings contain no '%g'.
        depth = 0
        j = i + 1
        literals = []
        while j < n:
            t = tokens[j]
            if t.kind == "punct" and t.text == "(":
                depth += 1
            elif t.kind == "punct" and t.text == ")":
                depth -= 1
                if depth == 0:
                    break
            elif t.kind == "str" and depth >= 1:
                literals.append(t)
            j += 1
        for lit in literals:
            for conv in _G_CONVERSION_RE.findall(lit.text):
                if conv[-1] in "gG" and conv != CANONICAL_G_FORMAT:
                    findings.append(Finding(
                        "det.raw-gformat", rel_path, lit.line,
                        "raw " + conv + " conversion bypasses "
                        "text::canonicalPrecision: doubles must serialize "
                        "as %.17g to round-trip bit-exactly"))


RULES = (check_unordered, check_wallclock, check_raw_rng, check_gformat)
RULE_IDS = (
    "det.unordered-in-serializer",
    "det.wallclock",
    "det.raw-rng",
    "det.raw-gformat",
)

# --------------------------------------------------------------------------
# Allowlist.

AllowEntry = namedtuple("AllowEntry", ["rule", "path_suffix", "reason", "line"])


def load_allowlist(path):
    entries = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 3:
                raise SystemExit(
                    "sct_check: %s:%d: allowlist entry needs "
                    "'rule path reason...' (a justification is mandatory)"
                    % (path, lineno))
            rule, suffix, reason = parts
            if rule not in RULE_IDS:
                raise SystemExit(
                    "sct_check: %s:%d: unknown rule id '%s'"
                    % (path, lineno, rule))
            entries.append(AllowEntry(rule, suffix, reason, lineno))
    return entries


# --------------------------------------------------------------------------
# File collection.


def rel_to_root(path, root):
    rel = os.path.relpath(os.path.abspath(path), root)
    return rel.replace(os.sep, "/")


def files_from_compile_db(build_dir, root):
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(db_path):
        raise SystemExit(
            "sct_check: no compile_commands.json under %s (configure with "
            "CMAKE_EXPORT_COMPILE_COMMANDS=ON — the default configure "
            "exports it)" % build_dir)
    with open(db_path, encoding="utf-8") as f:
        db = json.load(f)
    files = set()
    for entry in db:
        path = entry["file"]
        if not os.path.isabs(path):
            path = os.path.join(entry.get("directory", build_dir), path)
        rel = rel_to_root(path, root)
        if rel.startswith(ANALYZED_PREFIXES):
            files.add(os.path.abspath(path))
    # Headers are not TUs in the database; every project header is part of
    # some analyzed TU's preprocessed output, so sweep them all.
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "src")):
        for name in filenames:
            if name.endswith(".hpp") or name.endswith(".h"):
                files.add(os.path.join(dirpath, name))
    return sorted(files)


# --------------------------------------------------------------------------
# Reporting (mirrors src/lint's text and JSON renderers).


def render_text(out, findings, suppressed, files_checked):
    for f in findings:
        out.write("error: [%s] %s:%d: %s\n" % (f.rule, f.path, f.line,
                                               f.message))
    for f, entry in suppressed:
        out.write("note: [%s] %s:%d: suppressed by allowlist (%s)\n"
                  % (f.rule, f.path, f.line, entry.reason))
    out.write("sct-check: %d error%s, %d suppressed, %d files\n"
              % (len(findings), "" if len(findings) == 1 else "s",
                 len(suppressed), files_checked))


def render_json(out, findings, suppressed, files_checked):
    doc = {
        "version": 1,
        "summary": {
            "errors": len(findings),
            "suppressed": len(suppressed),
            "files": files_checked,
        },
        "diagnostics": [
            {"rule": f.rule, "severity": "error", "path": f.path,
             "line": f.line, "message": f.message}
            for f in findings
        ] + [
            {"rule": f.rule, "severity": "note", "path": f.path,
             "line": f.line,
             "message": "suppressed by allowlist (%s)" % entry.reason}
            for f, entry in suppressed
        ],
    }
    json.dump(doc, out, indent=2, sort_keys=True)
    out.write("\n")


# --------------------------------------------------------------------------
# Driver.


def analyze_files(paths, root):
    findings = []
    checked = 0
    for path in paths:
        rel = rel_to_root(path, root)
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            raise SystemExit("sct_check: cannot read %s: %s" % (path, e))
        tokens = lex(text)
        checked += 1
        for rule in RULES:
            rule(rel, tokens, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, checked


def split_suppressed(findings, allowlist):
    kept = []
    suppressed = []
    used = set()
    for f in findings:
        entry = next((e for e in allowlist
                      if e.rule == f.rule and f.path.endswith(e.path_suffix)),
                     None)
        if entry is not None:
            suppressed.append((f, entry))
            used.add((entry.rule, entry.path_suffix))
        else:
            kept.append(f)
    stale = [e for e in allowlist
             if (e.rule, e.path_suffix) not in used]
    return kept, suppressed, stale


def run_check(paths, root, allowlist_path, json_out, allow_stale, out):
    findings, checked = analyze_files(paths, root)
    allowlist = load_allowlist(allowlist_path) if allowlist_path else []
    findings, suppressed, stale = split_suppressed(findings, allowlist)
    if not allow_stale:
        for e in stale:
            findings.append(Finding(
                "det.allowlist-stale", allowlist_path,
                e.line,
                "allowlist entry '%s %s' suppresses nothing — prune it "
                "(reason was: %s)" % (e.rule, e.path_suffix, e.reason)))
    if json_out:
        render_json(out, findings, suppressed, checked)
    else:
        render_text(out, findings, suppressed, checked)
    return 3 if findings else 0


# --------------------------------------------------------------------------
# Self-test over the checked-in fixtures: one seeded violation per rule, a
# clean TU, and an allowlisted TU that must be reported as suppressed.


def self_test(root):
    import io  # noqa: PLC0415

    fixtures = os.path.join(root, "tests", "sct_check_fixtures")
    if not os.path.isdir(fixtures):
        print("sct_check --self-test: fixtures directory missing: %s"
              % fixtures)
        return 1
    expect = {
        "fixture_unordered_report_io.cpp": "det.unordered-in-serializer",
        "fixture_unordered_fields.hpp": "det.unordered-in-serializer",
        "fixture_wallclock.cpp": "det.wallclock",
        "fixture_raw_rng.cpp": "det.raw-rng",
        "fixture_gformat.cpp": "det.raw-gformat",
    }
    failures = []

    # 1. Each seeded violation is detected, with exactly its rule.
    for name, rule in sorted(expect.items()):
        findings, _ = analyze_files([os.path.join(fixtures, name)], root)
        rules = {f.rule for f in findings}
        if rule not in rules:
            failures.append("%s: expected %s, got %s"
                            % (name, rule, sorted(rules) or "no findings"))

    # 2. The clean TU produces no findings.
    findings, _ = analyze_files(
        [os.path.join(fixtures, "fixture_clean.cpp")], root)
    if findings:
        failures.append("fixture_clean.cpp: unexpected findings: %s"
                        % [(f.rule, f.line) for f in findings])

    # 3. The allowlisted violation is suppressed — and reported, not silent.
    allow = os.path.join(fixtures, "allowlist.txt")
    buf = io.StringIO()
    status = run_check([os.path.join(fixtures, "fixture_allowlisted.cpp")],
                       root, allow, False, False, buf)
    text = buf.getvalue()
    if status != 0:
        failures.append("allowlisted fixture: expected exit 0, got %d\n%s"
                        % (status, text))
    if "suppressed by allowlist" not in text:
        failures.append("allowlisted fixture: suppression not reported:\n%s"
                        % text)

    # 4. A stale allowlist entry is itself an error.
    buf = io.StringIO()
    status = run_check([os.path.join(fixtures, "fixture_clean.cpp")],
                       root, allow, False, False, buf)
    if status == 0 or "det.allowlist-stale" not in buf.getvalue():
        failures.append("stale allowlist entry not flagged")

    if failures:
        print("sct_check --self-test FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print("sct_check --self-test: all rules fire, clean TU clean, "
          "suppressions reported")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        prog="sct_check.py",
        description="project determinism-invariant checker (DESIGN.md §16)")
    parser.add_argument("-p", "--build-dir",
                        help="build directory with compile_commands.json")
    parser.add_argument("--files", nargs="+",
                        help="explicit file list instead of the compile db")
    parser.add_argument("--allowlist",
                        help="allowlist file (rule path reason per line)")
    parser.add_argument("--root",
                        help="repo root (default: parent of this script)")
    parser.add_argument("--json", action="store_true",
                        help="JSON diagnostics (lint report shape)")
    parser.add_argument("--allow-stale-suppressions", action="store_true",
                        help="do not fail on allowlist entries that match "
                             "nothing")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-violation fixture suite")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root) if args.root else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if args.self_test:
        return self_test(root)

    if bool(args.build_dir) == bool(args.files):
        parser.error("exactly one of -p/--build-dir or --files is required")
    if args.files:
        paths = [os.path.abspath(f) for f in args.files]
    else:
        paths = files_from_compile_db(args.build_dir, root)
    if not paths:
        print("sct_check: no files to analyze", file=sys.stderr)
        return 2
    return run_check(paths, root, args.allowlist, args.json,
                     args.allow_stale_suppressions, sys.stdout)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
