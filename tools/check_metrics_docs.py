#!/usr/bin/env python3
"""Doc-lint: keep the observability docs in sync with the code.

Counter names come from the X-macro tables, one `X(name, "help")` row per
counter: TILQ_METRIC_COUNTERS (src/support/metrics.hpp) and
TILQ_HW_COUNTERS (src/support/perf.hpp). Every struct field, JSON key and
`tilq_<name>` Prometheus series expands from those rows, so the lint
reads the rows instead of parsing the structs or the serializers.

Checks, run in full on every invocation:
  * docs/METRICS.md: the '## Counters' table lists exactly the counter
    table rows, '## Hardware counters' exactly the hardware rows,
    '## Load imbalance' exactly the keys append_imbalance_json emits, and
    every schema version the doc claims equals kMetricsSchemaVersion;
  * docs/ROBUSTNESS.md names every fault site, defect kind, degradation
    and resilience counter, and the `tilq_engine_health` gauge;
  * docs/CONCURRENCY.md: '## Engine counters (metrics schema v3)' lists
    exactly the engine_* counters, and the doc names every public symbol
    of src/core/engine.hpp and src/support/thread_pool.hpp;
  * docs/SERVING.md: '## Latency record fields (metrics schema v3)' lists
    exactly the keys append_engine_latency_json emits, and the doc names
    every engine_* counter and the health gauge;
  * docs/TELEMETRY.md: '## Exporter metrics' lists exactly the exporter's
    series (its `tilq_` string literals plus `tilq_<name>` per counter
    row), '## Flight-record events' exactly the flight event names, and
    the doc names every public symbol of src/support/telemetry.hpp;
  * docs/TUNING.md: '## Autotune counters' lists exactly the autotune_*
    counters, and the doc names every public symbol of
    src/core/autotune.hpp.

Exits non-zero with a readable diff when any pair drifts apart.
Registered as the `doc_metrics_lint` CTest entry (skipped when python3
is absent).
"""

import argparse
import pathlib
import re
import sys


def read(path: pathlib.Path) -> str:
    return path.read_text(encoding="utf-8")


def table_rows(path: pathlib.Path, macro: str) -> list[str]:
    """Counter names, in order, from the `#define macro(X)` table rows."""
    match = re.search(rf"#define {macro}\(X\)(.*?)\n\n", read(path),
                      re.DOTALL)
    names = re.findall(r"^\s*X\((\w+),", match.group(1), re.MULTILINE) \
        if match else []
    if not names:
        sys.exit(f"{path}: no X(name, help) rows found in {macro}")
    return names


def emitted_keys(path: pathlib.Path, function: str) -> set[str]:
    """Keys a hand-written JSON emitter writes (field("k", ...) calls and
    literal \\"k\\": keys)."""
    match = re.search(rf"void {function}\(.*?\n\}}", read(path), re.DOTALL)
    if not match:
        sys.exit(f"{path}: could not find {function}")
    body = match.group(0)
    names = set(re.findall(r'field\("(\w+)"', body))
    names |= set(re.findall(r'\\"(\w+)\\":', body))
    if not names:
        sys.exit(f"{path}: no emitted keys matched in {function}")
    return names


def to_string_names(path: pathlib.Path, enum: str) -> set[str]:
    """The names a `to_string(enum ...)` switch returns, minus its
    unreachable default."""
    match = re.search(rf"to_string\({enum} \w+\).*?\n\}}", read(path),
                      re.DOTALL)
    if not match:
        sys.exit(f"{path}: could not find to_string({enum})")
    names = set(re.findall(r'return "([a-z-]+)";', match.group(0)))
    names -= {"?", "unknown"}
    if not names:
        sys.exit(f"{path}: no to_string({enum}) names matched")
    return names


def doc_table(path: pathlib.Path, section: str) -> set[str]:
    """Backticked names from the table rows under `section`."""
    names = set()
    in_section = False
    for line in read(path).splitlines():
        if line.startswith("## "):
            in_section = line.strip() == section
            continue
        match = re.match(r"\|\s*`([\w-]+)`\s*\|", line)
        if in_section and match:
            names.add(match.group(1))
    if not names:
        sys.exit(f"{path}: no table rows found under '{section}'")
    return names


def doc_mentions(path: pathlib.Path) -> set[str]:
    """Every backticked span anywhere in the doc, and every word inside
    one. Fenced code blocks are dropped: they flip the inline-span parity,
    and identifiers must be named in prose, not just shown in examples."""
    text = re.sub(r"```.*?```", " ", read(path), flags=re.DOTALL)
    mentions = set()
    for span in re.findall(r"`([^`]+)`", text):
        mentions |= {span} | set(re.findall(r"\w+", span))
    return mentions


_SKIP_NAMES = {"operator", "static_assert", "require", "return", "if",
               "switch", "for", "while", "throw", "sizeof", "decltype"}


def public_symbols(path: pathlib.Path) -> set[str]:
    """Public API names declared in a header: namespace-scope classes,
    structs, free functions, and the public members of those classes
    (methods, nested types, `using X =` aliases). Private/protected
    sections and *_detail namespaces are excluded. Line-based scan with a
    brace-depth scope stack — not a C++ parser, but exact for the
    project's style (one declaration per line, opening brace on the
    declaration line)."""
    names: set[str] = set()
    depth = 0
    # Scope stack entries: (kind, body_depth, access, name).
    stack: list[tuple[str, int, str, str]] = []

    def scrapeable() -> bool:
        for kind, _, access, name in stack:
            if kind == "namespace" and name.endswith("detail"):
                return False
            if kind in ("class", "struct") and access != "public":
                return False
        return True

    for raw in read(path).splitlines():
        line = raw.split("//")[0].rstrip()
        stripped = line.strip()
        top = stack[-1] if stack else None
        at_body = top is not None and depth == top[1]
        ns = re.match(r"namespace (\w+) \{", stripped)
        record = re.match(r"(?:template <.*> )?(class|struct) (\w+)[^;=]*\{",
                          stripped)
        if top and top[0] in ("class", "struct") and at_body:
            if re.match(r"(public|private|protected):", stripped):
                stack[-1] = (top[0], top[1], stripped.split(":")[0], top[3])
            elif scrapeable() and not record:
                alias = re.match(r"using (\w+) =", stripped)
                method = re.search(r"[~ ](\w+)\(", " " + stripped)
                if alias:
                    names.add(alias.group(1))
                elif (method and not stripped.startswith(":")
                      and method.group(1) not in _SKIP_NAMES
                      and not method.group(1).endswith("_")):
                    names.add(method.group(1))
        if ns:
            stack.append(("namespace", depth + 1, "public", ns.group(1)))
        elif record and (top is None or at_body):
            if scrapeable():
                names.add(record.group(2))
            access = "public" if record.group(1) == "struct" else "private"
            stack.append((record.group(1), depth + 1, access,
                          record.group(2)))
        elif (top is not None and top[0] == "namespace" and at_body
              and scrapeable()):
            func = re.match(
                r"(?:\[\[nodiscard\]\] )?[\w:<>]+ (\w+)\(", stripped)
            if func and func.group(1) not in _SKIP_NAMES:
                names.add(func.group(1))
        depth += line.count("{") - line.count("}")
        while stack and depth < stack[-1][1]:
            stack.pop()
    if not names:
        sys.exit(f"{path}: no public symbols matched")
    return names


class Lint:
    def __init__(self, root: pathlib.Path):
        self.root = root
        self.bad = False

    def rel(self, path: pathlib.Path) -> str:
        return str(path.relative_to(self.root))

    def report(self, title: str, names: set[str]) -> None:
        if names:
            print(f"{title}:")
            for name in sorted(names):
                print(f"  {name}")
            self.bad = True

    def same(self, kind: str, code: set[str], doc: pathlib.Path,
             section: str) -> None:
        """The doc table under `section` lists exactly `code`."""
        documented = doc_table(doc, section)
        self.report(f"{kind} missing from {self.rel(doc)}",
                    code - documented)
        self.report(f"{kind} documented in {self.rel(doc)} but absent "
                    "from the code", documented - code)

    def named(self, kind: str, required: set[str],
              doc: pathlib.Path) -> None:
        """The doc names (backticks) every one of `required`."""
        self.report(f"{kind} missing from {self.rel(doc)}",
                    required - doc_mentions(doc))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root to check")
    root = pathlib.Path(parser.parse_args().root).resolve()
    src = root / "src"
    docs = root / "docs"
    lint = Lint(root)

    counters = set(table_rows(src / "support/metrics.hpp",
                              "TILQ_METRIC_COUNTERS"))
    hw = set(table_rows(src / "support/perf.hpp", "TILQ_HW_COUNTERS"))
    metrics_cpp = src / "support/metrics.cpp"
    imbalance = emitted_keys(metrics_cpp, "append_imbalance_json")
    latency = emitted_keys(metrics_cpp, "append_engine_latency_json")
    engine_counters = {c for c in counters if c.startswith("engine_")}

    metrics_doc = docs / "METRICS.md"
    lint.same("counters", counters, metrics_doc, "## Counters")
    lint.same("hw counters", hw, metrics_doc, "## Hardware counters")
    lint.same("imbalance fields", imbalance, metrics_doc, "## Load imbalance")
    version = re.search(r"kMetricsSchemaVersion = (\d+);",
                        read(src / "support/metrics.hpp"))
    text = read(metrics_doc)
    claimed = set(re.findall(r"schema version (\d+)", text))
    claimed |= set(re.findall(r'"tilq_metrics":(\d+)', text))
    if not version or claimed != {version.group(1)}:
        print(f"schema version mismatch: the header declares "
              f"{version and version.group(1)}, {lint.rel(metrics_doc)} "
              f"claims {sorted(claimed)}")
        lint.bad = True

    fault_sites = to_string_names(src / "support/fault.cpp", "FaultSite")
    defects = to_string_names(src / "sparse/validate.hpp", "DefectKind")
    lint.named("robustness names",
               fault_sites | defects
               | {"accum_rehashes", "accum_degrades", "engine_retries",
                  "engine_brownouts", "tilq_engine_health"},
               docs / "ROBUSTNESS.md")

    concurrency_doc = docs / "CONCURRENCY.md"
    lint.same("engine counters", engine_counters, concurrency_doc,
              "## Engine counters (metrics schema v3)")
    engine_api = (public_symbols(src / "core/engine.hpp")
                  | public_symbols(src / "support/thread_pool.hpp"))
    lint.named("public engine/thread-pool symbols", engine_api,
               concurrency_doc)

    serving_doc = docs / "SERVING.md"
    lint.same("engine_latency fields", latency, serving_doc,
              "## Latency record fields (metrics schema v3)")
    # The health gauge rides along with the engine counters: the operator
    # runbook must name it, or a 503 from /healthz has no documented
    # metric to pivot to.
    lint.named("engine counters", engine_counters | {"tilq_engine_health"},
               serving_doc)

    telemetry_cpp = src / "support/telemetry.cpp"
    telemetry_doc = docs / "TELEMETRY.md"
    exporter = set(re.findall(r'"(tilq_[a-z0-9_]+)"', read(telemetry_cpp)))
    exporter |= {f"tilq_{name}" for name in counters}
    lint.same("exporter metrics", exporter, telemetry_doc,
              "## Exporter metrics")
    events = to_string_names(telemetry_cpp, "FlightEventKind")
    lint.same("flight events", events, telemetry_doc,
              "## Flight-record events")
    telemetry_api = public_symbols(src / "support/telemetry.hpp")
    lint.named("public telemetry symbols", telemetry_api, telemetry_doc)

    tuning_doc = docs / "TUNING.md"
    autotune_counters = {c for c in counters if c.startswith("autotune_")}
    lint.same("autotune counters", autotune_counters, tuning_doc,
              "## Autotune counters")
    autotune_api = public_symbols(src / "core/autotune.hpp")
    lint.named("public autotune symbols", autotune_api, tuning_doc)

    if lint.bad:
        return 1
    print(f"ok: {len(counters)} counters, {len(hw)} hw fields, "
          f"{len(imbalance)} imbalance fields, schema v{version.group(1)}, "
          f"{len(fault_sites)} fault sites and {len(defects)} defect kinds, "
          f"{len(engine_api)} engine/pool symbols, {len(latency)} "
          f"engine_latency fields, {len(exporter)} exporter metrics, "
          f"{len(events)} flight events, {len(telemetry_api)} telemetry "
          f"symbols, {len(autotune_counters)} autotune counters and "
          f"{len(autotune_api)} autotune symbols documented; code and docs "
          "consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
