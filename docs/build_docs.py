#!/usr/bin/env python3
"""Dependency-free documentation builder for the repro project.

The container this project targets has no mkdocs or Sphinx, so the site is
built by this script alone: a small Markdown subset renderer, an API
reference generated by introspection, and two checking modes that CI runs
with warnings promoted to errors.

Usage::

    python docs/build_docs.py              # build docs/_build/*.html
    python docs/build_docs.py --strict     # build; any warning fails (CI)
    python docs/build_docs.py --doctest    # run doctests + doc code blocks

Checks enforced by the build (warnings, errors under ``--strict``):

* every public API symbol (the curated table below, which must cover all of
  ``repro.__all__``) has a docstring, and so does every public method of
  every public class — the API reference refuses to render undocumented
  entry points;
* internal links between pages resolve;
* fenced code blocks declare a known language.

``--doctest`` additionally executes the ``>>>`` examples in module
docstrings and every ```` ```python ```` block of ``README.md`` and the
``docs/*.md`` pages, top to bottom in one namespace per file — so the code
shown in the documentation cannot silently drift from the library.
"""

from __future__ import annotations

import argparse
import doctest
import html
import importlib
import inspect
import io
import re
import sys
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DOCS_DIR = Path(__file__).resolve().parent
REPO_ROOT = DOCS_DIR.parent
SRC_DIR = REPO_ROOT / "src"
BUILD_DIR = DOCS_DIR / "_build"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

#: The rendered pages, in navigation order: (source file, nav title).
PAGES: List[Tuple[str, str]] = [
    ("index.md", "Overview"),
    ("architecture.md", "Architecture"),
    ("query-language.md", "Query language"),
    ("complexity.md", "Complexity tables"),
    ("precision.md", "Exact vs float vs approx"),
    ("tape.md", "Flat tapes"),
    ("service.md", "Serving layer"),
    ("reliability.md", "Fault tolerance"),
    ("persistence.md", "Durable state"),
    ("observability.md", "Observability"),
]

#: The public API, by section: (section title, module path, symbol names).
#: Every name in ``repro.__all__`` must appear here (checked at build time),
#: plus the serving/workload/bench entry points that live in submodules.
API_SECTIONS: List[Tuple[str, str, List[str]]] = [
    ("Errors and warnings", "repro", [
        "ReproError", "GraphError", "QueryParseError", "ClassConstraintError",
        "ProbabilityError", "LineageError", "PlanError", "AutomatonError",
        "ServiceError", "ServiceUnavailableError", "DeadlineExceededError",
        "PersistenceError", "IntractableFallbackWarning",
    ]),
    ("Graphs", "repro", [
        "DiGraph", "Edge", "UNLABELED", "one_way_path", "two_way_path",
        "downward_tree", "polytree_from_parents", "disjoint_union",
        "GraphClass", "classify_graph", "graph_class_of",
        "has_homomorphism", "find_homomorphism", "homomorphic_equivalent",
    ]),
    ("Probabilistic instances", "repro", [
        "ProbabilisticGraph", "brute_force_phom",
    ]),
    ("Numeric backends", "repro", [
        "EXACT", "FAST", "NumericContext", "resolve_context",
    ]),
    ("Lineage", "repro", [
        "PositiveDNF", "DDNNF", "match_lineage",
    ]),
    ("Solving", "repro", [
        "PHomSolver", "PHomResult", "phom_probability",
    ]),
    ("Compiled plans", "repro", [
        "CompiledPlan", "PlanCache", "canonical_query_key",
    ]),
    ("Flat tapes", "repro", [
        "PlanTape", "TapeEvaluator", "compile_plan_tape",
    ]),
    ("Query language", "repro", [
        "parse_query", "parse_query_graph", "format_query", "QueryIR", "Atom",
        "query_core", "normalize_query", "NormalizedQuery", "explain_query",
    ]),
    ("Query internals", "repro.query", [
        "as_query_graph", "ir_from_graph", "is_identifier",
        "validate_query_graph", "dispatch_preview", "QueryExplanation",
    ]),
    ("Approximation", "repro", [
        "ApproxParams", "ApproxEstimate", "karp_luby_probability",
        "naive_phom_estimate",
    ]),
    ("Serving", "repro", [
        "QueryService", "ServiceRequest", "ServiceResult", "ServiceStats",
    ]),
    ("Fault tolerance", "repro", [
        "FaultPlan", "Fault", "FaultInjector", "DiskFaultInjector",
        "epsilon_for_budget",
    ]),
    ("Durable state", "repro", [
        "WriteAheadLog", "WalRecovery", "scan_wal", "PlanStore",
        "PersistentPlanCache", "instance_digest", "plan_store_key",
    ]),
    ("Observability", "repro.obs", [
        "MetricsRegistry", "Counter", "Gauge", "Histogram",
        "DEFAULT_BUCKETS_MS", "counter_total", "counter_value",
        "counter_samples", "histogram_quantile", "merge_snapshots",
        "render_prometheus", "Tracer", "Span", "NullTracer", "NULL_TRACER",
        "current_tracer", "set_tracer", "read_trace", "validate_trace",
        "render_trace",
    ]),
    ("Classification", "repro", [
        "classify_cell", "Complexity", "table1", "table2", "table3",
    ]),
    ("Workloads", "repro.workloads", [
        "Workload", "TrafficTrace", "workload_for_cell", "make_query",
        "make_instance", "attach_random_probabilities",
        "intractable_instance", "intractable_workload",
        "add_redundant_atoms", "redundant_query_workload",
        "query_traffic_trace", "chaos_traffic_trace", "zipf_ranks",
    ]),
    ("Serialization", "repro.graphs.serialization", [
        "graph_to_dict", "graph_from_dict", "probabilistic_graph_to_dict",
        "probabilistic_graph_from_dict", "load_query", "load_instance",
        "save_graph",
    ]),
]

#: Files whose ```python blocks are executed by ``--doctest``.
SNIPPET_FILES = [REPO_ROOT / "README.md"] + [DOCS_DIR / name for name, _ in PAGES]

#: Languages allowed on fenced code blocks in the docs sources.
KNOWN_LANGUAGES = {"python", "bash", "text", "json", "jsonl", ""}


class BuildLog:
    """Collects warnings; ``--strict`` turns any warning into a failure."""

    def __init__(self) -> None:
        self.warnings: List[str] = []

    def warn(self, message: str) -> None:
        self.warnings.append(message)
        print(f"warning: {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# Markdown subset -> HTML
# ----------------------------------------------------------------------
_LINK_PATTERN = re.compile(r"\[([^\]]+)\]\(([^)\s]+)\)")


def _render_inline(text: str, log: BuildLog, page: str, targets: set) -> str:
    # Protect inline code spans first: take them out, escape the rest,
    # substitute emphasis/links, then re-insert.
    out = html.escape(text, quote=False)
    # Undo escaping inside the original code spans by re-running on the
    # escaped text — the patterns below operate on the escaped string.
    code_pattern = re.compile(r"`([^`]+)`")
    out = code_pattern.sub(lambda m: f"<code>{m.group(1)}</code>", out)

    def link(match: "re.Match[str]") -> str:
        label, target = match.group(1), match.group(2)
        if not target.startswith(("http://", "https://", "#")):
            base = target.split("#", 1)[0]
            if base and base not in targets:
                log.warn(f"{page}: broken internal link to {target!r}")
            if base.endswith(".md"):
                target = base[:-3] + ".html" + (
                    "#" + target.split("#", 1)[1] if "#" in target else ""
                )
        return f'<a href="{target}">{label}</a>'

    out = _LINK_PATTERN.sub(link, out)
    out = re.sub(r"\*\*([^*]+)\*\*", r"<strong>\1</strong>", out)
    out = re.sub(r"(?<![\w*])\*([^*\n]+)\*(?![\w*])", r"<em>\1</em>", out)
    return out


def render_markdown(source: str, log: BuildLog, page: str, targets: set) -> str:
    """Render the Markdown subset used by the docs sources to HTML."""
    lines = source.split("\n")
    out: List[str] = []
    i = 0
    in_list: Optional[str] = None

    def close_list() -> None:
        nonlocal in_list
        if in_list:
            out.append(f"</{in_list}>")
            in_list = None

    while i < len(lines):
        line = lines[i]
        stripped = line.strip()
        # fenced code
        if stripped.startswith("```"):
            close_list()
            language = stripped[3:].strip()
            if language not in KNOWN_LANGUAGES:
                log.warn(f"{page}: unknown code-block language {language!r}")
            body: List[str] = []
            i += 1
            while i < len(lines) and not lines[i].strip().startswith("```"):
                body.append(lines[i])
                i += 1
            i += 1
            css = f' class="language-{language}"' if language else ""
            out.append(f"<pre><code{css}>{html.escape(chr(10).join(body))}</code></pre>")
            continue
        # headings
        match = re.match(r"^(#{1,4})\s+(.*)$", line)
        if match:
            close_list()
            level = len(match.group(1))
            text = match.group(2).strip()
            anchor = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
            out.append(
                f'<h{level} id="{anchor}">'
                f"{_render_inline(text, log, page, targets)}</h{level}>"
            )
            i += 1
            continue
        # tables
        if stripped.startswith("|") and i + 1 < len(lines) and re.match(
            r"^\s*\|[\s:|-]+\|\s*$", lines[i + 1]
        ):
            close_list()
            header = [c.strip() for c in stripped.strip("|").split("|")]
            out.append("<table><thead><tr>")
            out.extend(
                f"<th>{_render_inline(cell, log, page, targets)}</th>" for cell in header
            )
            out.append("</tr></thead><tbody>")
            i += 2
            while i < len(lines) and lines[i].strip().startswith("|"):
                cells = [c.strip() for c in lines[i].strip().strip("|").split("|")]
                out.append("<tr>")
                out.extend(
                    f"<td>{_render_inline(cell, log, page, targets)}</td>"
                    for cell in cells
                )
                out.append("</tr>")
                i += 1
            out.append("</tbody></table>")
            continue
        # lists
        match = re.match(r"^(\s*)([-*]|\d+\.)\s+(.*)$", line)
        if match:
            kind = "ol" if match.group(2)[0].isdigit() else "ul"
            if in_list != kind:
                close_list()
                out.append(f"<{kind}>")
                in_list = kind
            item_lines = [match.group(3)]
            i += 1
            while i < len(lines) and re.match(r"^\s{2,}\S", lines[i]) and not re.match(
                r"^(\s*)([-*]|\d+\.)\s+", lines[i]
            ):
                item_lines.append(lines[i].strip())
                i += 1
            out.append(
                f"<li>{_render_inline(' '.join(item_lines), log, page, targets)}</li>"
            )
            continue
        # blockquote
        if stripped.startswith(">"):
            close_list()
            quote: List[str] = []
            while i < len(lines) and lines[i].strip().startswith(">"):
                quote.append(lines[i].strip().lstrip(">").strip())
                i += 1
            out.append(
                f"<blockquote><p>{_render_inline(' '.join(quote), log, page, targets)}"
                "</p></blockquote>"
            )
            continue
        # blank
        if not stripped:
            close_list()
            i += 1
            continue
        # paragraph
        close_list()
        paragraph = [stripped]
        i += 1
        while i < len(lines):
            nxt = lines[i].strip()
            if not nxt or nxt.startswith(("#", "```", "|", ">", "- ", "* ")) or re.match(
                r"^\d+\.\s", nxt
            ):
                break
            paragraph.append(nxt)
            i += 1
        out.append(f"<p>{_render_inline(' '.join(paragraph), log, page, targets)}</p>")
    close_list()
    return "\n".join(out)


# ----------------------------------------------------------------------
# page template
# ----------------------------------------------------------------------
_STYLE = """
body { margin: 0; font-family: Georgia, 'Times New Roman', serif;
       color: #1a1a1a; line-height: 1.55; }
.layout { display: flex; min-height: 100vh; }
nav { width: 230px; flex-shrink: 0; background: #f4f1ec; padding: 1.5rem 1rem;
      border-right: 1px solid #ddd6ca; font-family: Helvetica, Arial, sans-serif;
      font-size: 0.9rem; }
nav h2 { font-size: 0.8rem; text-transform: uppercase; letter-spacing: 0.08em;
         color: #8a8273; margin: 1.2rem 0 0.4rem; }
nav a { display: block; color: #3d5a80; text-decoration: none; padding: 0.15rem 0; }
nav a.current { font-weight: bold; color: #1a1a1a; }
main { max-width: 46rem; padding: 2rem 3rem; }
h1, h2, h3 { font-family: Helvetica, Arial, sans-serif; line-height: 1.25; }
h1 { border-bottom: 2px solid #3d5a80; padding-bottom: 0.3rem; }
code { background: #f4f1ec; padding: 0.1em 0.3em; border-radius: 3px;
       font-size: 0.92em; }
pre { background: #2b2b33; color: #eceae4; padding: 0.9rem 1.1rem;
      border-radius: 6px; overflow-x: auto; font-size: 0.85rem; line-height: 1.45; }
pre code { background: none; padding: 0; color: inherit; }
table { border-collapse: collapse; margin: 1rem 0; font-size: 0.92rem; }
th, td { border: 1px solid #ddd6ca; padding: 0.35rem 0.7rem; text-align: left; }
th { background: #f4f1ec; font-family: Helvetica, Arial, sans-serif; }
blockquote { border-left: 4px solid #3d5a80; margin: 1rem 0; padding: 0.2rem 1rem;
             color: #555; background: #faf8f5; }
.symbol { border: 1px solid #ddd6ca; border-radius: 6px; margin: 1.3rem 0;
          padding: 0.2rem 1.1rem 0.6rem; }
.symbol h3 { margin-bottom: 0.2rem; }
.signature { font-family: ui-monospace, Menlo, Consolas, monospace;
             font-size: 0.85rem; color: #3d5a80; margin: 0.2rem 0 0.6rem; }
.docstring { background: #faf8f5; color: #1a1a1a; border: none;
             white-space: pre-wrap; font-size: 0.82rem; }
.method { margin: 0.7rem 0 0.7rem 1.2rem; }
footer { margin-top: 3rem; font-size: 0.8rem; color: #8a8273;
         font-family: Helvetica, Arial, sans-serif; }
"""


def _nav(current: str) -> str:
    items = ['<h2>Guide</h2>']
    for name, title in PAGES:
        href = name[:-3] + ".html"
        css = ' class="current"' if href == current else ""
        items.append(f'<a href="{href}"{css}>{title}</a>')
    items.append('<h2>Reference</h2>')
    css = ' class="current"' if current == "api.html" else ""
    items.append(f'<a href="api.html"{css}>API reference</a>')
    for title, _module, _symbols in API_SECTIONS:
        anchor = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")
        items.append(f'<a href="api.html#{anchor}">&nbsp;&nbsp;{title}</a>')
    return "\n".join(items)


def _page(title: str, body: str, current: str) -> str:
    import repro

    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{html.escape(title)} — repro documentation</title>
<style>{_STYLE}</style>
</head>
<body>
<div class="layout">
<nav>
<h2>repro {repro.__version__}</h2>
{_nav(current)}
</nav>
<main>
{body}
<footer>repro {repro.__version__} — Conjunctive Queries on Probabilistic
Graphs: Combined Complexity (PODS 2017). Built by docs/build_docs.py.</footer>
</main>
</div>
</body>
</html>
"""


# ----------------------------------------------------------------------
# API reference
# ----------------------------------------------------------------------
def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def _audit_symbol(qualified: str, obj, log: BuildLog) -> None:
    if inspect.isclass(obj) or inspect.isfunction(obj) or inspect.ismethod(obj):
        if not inspect.getdoc(obj):
            log.warn(f"public symbol {qualified} has no docstring")
    if inspect.isclass(obj):
        for name, member in inspect.getmembers(obj):
            if name.startswith("_") and name not in ("__init__",):
                continue
            if inspect.isfunction(member) or inspect.ismethod(member) or isinstance(
                inspect.getattr_static(obj, name, None), (property, classmethod, staticmethod)
            ):
                target = member.fget if isinstance(member, property) else member
                if not inspect.getdoc(target):
                    log.warn(f"public method {qualified}.{name} has no docstring")


def _render_symbol(module_name: str, name: str, obj, log: BuildLog) -> str:
    qualified = f"{module_name}.{name}"
    _audit_symbol(qualified, obj, log)
    parts = [f'<div class="symbol" id="{name}">']
    if inspect.isclass(obj):
        kind = "exception" if issubclass(obj, BaseException) else "class"
        parts.append(f"<h3><code>{kind} {html.escape(name)}</code></h3>")
        init_sig = _signature(obj) or "(...)"
        parts.append(f'<div class="signature">{html.escape(name + init_sig)}</div>')
        doc = inspect.getdoc(obj) or ""
        parts.append(f'<pre class="docstring">{html.escape(doc)}</pre>')
        for member_name, member in inspect.getmembers(obj):
            if member_name.startswith("_"):
                continue
            static = inspect.getattr_static(obj, member_name, None)
            if isinstance(static, property):
                doc = inspect.getdoc(static.fget) or ""
                parts.append(
                    f'<div class="method"><div class="signature">property '
                    f"{html.escape(member_name)}</div>"
                    f'<pre class="docstring">{html.escape(doc)}</pre></div>'
                )
            elif inspect.isfunction(member) or inspect.ismethod(member):
                doc = inspect.getdoc(member) or ""
                sig = _signature(member)
                parts.append(
                    f'<div class="method"><div class="signature">'
                    f"{html.escape(member_name + sig)}</div>"
                    f'<pre class="docstring">{html.escape(doc)}</pre></div>'
                )
    elif inspect.isfunction(obj):
        parts.append(f"<h3><code>def {html.escape(name)}</code></h3>")
        parts.append(
            f'<div class="signature">{html.escape(name + _signature(obj))}</div>'
        )
        doc = inspect.getdoc(obj) or ""
        if not doc:
            log.warn(f"public symbol {qualified} has no docstring")
        parts.append(f'<pre class="docstring">{html.escape(doc)}</pre>')
    else:
        parts.append(f"<h3><code>{html.escape(name)}</code></h3>")
        parts.append(
            f'<div class="signature">{html.escape(type(obj).__name__)} constant'
            "</div>"
        )
        doc = inspect.getdoc(type(obj)) if not isinstance(obj, str) else None
        summary = (doc or "").split("\n\n")[0]
        parts.append(f'<pre class="docstring">{html.escape(summary)}</pre>')
    parts.append("</div>")
    return "\n".join(parts)


def build_api_page(log: BuildLog) -> str:
    import repro

    covered = {
        name for _title, module, names in API_SECTIONS if module == "repro"
        for name in names
    }
    missing = [
        name for name in repro.__all__
        if name not in covered and name != "__version__"
    ]
    if missing:
        log.warn(f"repro.__all__ symbols missing from the API reference: {missing}")

    body = [
        "<h1>API reference</h1>",
        "<p>Generated by introspection from the installed package; the build "
        "fails when a public entry point lacks a docstring, so every symbol "
        "below is documented at the source.</p>",
    ]
    for title, module_name, names in API_SECTIONS:
        anchor = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")
        body.append(f'<h2 id="{anchor}">{html.escape(title)}</h2>')
        module = importlib.import_module(module_name)
        body.append(
            f'<p><code>{html.escape(module_name)}</code></p>'
        )
        for name in names:
            try:
                obj = getattr(module, name)
            except AttributeError:
                log.warn(f"API reference names unknown symbol {module_name}.{name}")
                continue
            body.append(_render_symbol(module_name, name, obj, log))
    return "\n".join(body)


# ----------------------------------------------------------------------
# doctest / snippet checking
# ----------------------------------------------------------------------
def run_doctests(log: BuildLog) -> int:
    """Run ``>>>`` doctests in module docstrings; returns the failure count."""
    import repro

    failures = 0
    for module in (repro,):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = doctest.testmod(module, verbose=False)
        failures += result.failed
        print(
            f"doctest {module.__name__}: {result.attempted} example(s), "
            f"{result.failed} failure(s)"
        )
        if result.failed:
            log.warn(f"doctests failed in {module.__name__}")
    return failures


def extract_python_blocks(path: Path) -> List[Tuple[int, str]]:
    """The ```python fenced blocks of a Markdown file, with line numbers."""
    blocks: List[Tuple[int, str]] = []
    lines = path.read_text(encoding="utf-8").split("\n")
    i = 0
    while i < len(lines):
        if lines[i].strip() == "```python":
            start = i + 1
            body: List[str] = []
            i += 1
            while i < len(lines) and lines[i].strip() != "```":
                body.append(lines[i])
                i += 1
            blocks.append((start + 1, "\n".join(body)))
        i += 1
    return blocks


def run_snippets(log: BuildLog) -> int:
    """Execute every ```python block of the documentation; returns failures.

    Blocks run top to bottom in one namespace per file, so later blocks may
    use names defined by earlier ones — exactly how a reader would follow
    the page.
    """
    failures = 0
    for path in SNIPPET_FILES:
        if not path.exists():
            log.warn(f"snippet file {path} does not exist")
            continue
        blocks = extract_python_blocks(path)
        namespace: Dict[str, object] = {"__name__": f"docs.{path.stem}"}
        for line, code in blocks:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    stdout = io.StringIO()
                    old_stdout = sys.stdout
                    sys.stdout = stdout
                    try:
                        exec(compile(code, f"{path.name}:{line}", "exec"), namespace)
                    finally:
                        sys.stdout = old_stdout
            except Exception as exc:
                failures += 1
                log.warn(
                    f"{path.name} code block at line {line} failed: "
                    f"{type(exc).__name__}: {exc}"
                )
        print(f"snippets {path.name}: {len(blocks)} block(s) executed")
    return failures


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def build_site(log: BuildLog) -> None:
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    targets = {name[:-3] + ".html" for name, _ in PAGES} | {"api.html"}
    targets |= {name for name, _ in PAGES}  # .md links are rewritten to .html
    for name, title in PAGES:
        source_path = DOCS_DIR / name
        if not source_path.exists():
            log.warn(f"missing docs source {name}")
            continue
        body = render_markdown(
            source_path.read_text(encoding="utf-8"), log, name, targets
        )
        output = name[:-3] + ".html"
        (BUILD_DIR / output).write_text(
            _page(title, body, output), encoding="utf-8"
        )
        print(f"built {output}")
    (BUILD_DIR / "api.html").write_text(
        _page("API reference", build_api_page(log), "api.html"), encoding="utf-8"
    )
    print("built api.html")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on any warning (missing docstrings, broken links)",
    )
    parser.add_argument(
        "--doctest", action="store_true",
        help="run module doctests and execute the docs' python code blocks "
        "instead of building the site",
    )
    args = parser.parse_args(argv)
    log = BuildLog()
    if args.doctest:
        failures = run_doctests(log) + run_snippets(log)
        if failures:
            print(f"doctest/snippet check FAILED ({failures} failure(s))")
            return 1
        print("doctest/snippet check passed")
        return 0
    build_site(log)
    if log.warnings:
        print(f"{len(log.warnings)} warning(s)", file=sys.stderr)
        if args.strict:
            print("--strict: treating warnings as errors", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
