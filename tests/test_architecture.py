"""The structural contracts: one owner per decision, read off the source.

The FDS is one protocol executed three ways (the event engine, the array
engine and rt), and it stays one protocol because each decision has one
owner: one process pool, one layout producer, one scorer, one trace
sink, one scenario description, one rule kernel and lattice draw, one
trace line codec, one receive path, one verdict reader, one bit layout
of the array engine's packed rows, one rewinder of a random stream, and
no module without a caller.

Each contract is a function from a :class:`Tree` of sources to the list
of its violations (empty when it holds).  A text check matches the text
a reader would grep for, in the same files; where the text only stands
in for structure, the ``ast`` form sits next to it.  Every contract is
proved by plantings: edits of the real tree, as source strings, that
must make it fire.  The sources are read and parsed once per session.
"""

from __future__ import annotations

import ast
import os
import re
import textwrap
from functools import cached_property
from pathlib import Path, PurePosixPath
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

import pytest

ROOT = Path(__file__).resolve().parents[1]

SRC = "src/repro/"
TESTS = "tests/"
BENCH = "benchmarks/system/"
TRACE = "src/repro/sim/trace.py"
SPOOL = "src/repro/obs/spool.py"
LAYOUT = "src/repro/sim/array_engine/layout.py"
RUNNER = "src/repro/experiments/runner.py"
DETECTOR = "src/repro/fds/detector.py"
GENERATORS = "src/repro/topology/generators.py"
HTTP = "src/repro/serve/http.py"
MEDIUM = "src/repro/sim/medium.py"
LINK = "src/repro/rt/substrate.py"
VERDICTS = "src/repro/obs/verdicts.py"
ANALYZE = "src/repro/obs/analyze.py"
ARRAY_ENGINE = "src/repro/sim/array_engine/"
BITS = "src/repro/sim/array_engine/bits.py"
LOSS = "src/repro/sim/array_engine/loss.py"
#: Where protocols and their hosts live: the text form of the receive
#: contract greps these (the energy ledger's ``on_receive`` debit and
#: the JSON validators' ``isinstance(payload, dict)`` sit elsewhere).
RECEIVE_CODE = ("src/repro/fds/", "src/repro/cluster/", "src/repro/sim/", "src/repro/rt/")
#: The writers of trace lines that must leave the encoding to record_line.
LINE_WRITERS = (
    SPOOL,
    HTTP,
    "src/repro/rt/collector.py",
    "src/repro/audit/differential.py",
)

# This file is in the trees these two needles are searched in, so each
# is spelled in two pieces: the file must not match its own checks.
RECORD_LINE_DEF = "def record" "_line("
EMIT_RECORD = "emit(" "TraceRecord"

Pattern = Union[str, re.Pattern]
Violations = List[str]


class Site(NamedTuple):
    """A definition or call: where it is and the scope it sits in."""

    path: str
    line: int
    scope: str  # dotted names of the enclosing classes and defs
    name: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.name} in {self.scope or '<module>'}"


def _name(node: ast.AST) -> str:
    """``f`` for ``f`` and ``m.f``; empty for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else ""


class _Index(ast.NodeVisitor):
    """One pass over a module: its definitions, classes, calls, imports
    and the names it binds to another name (``import a as b``, ``b = a``)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.scope: List[str] = []
        self.defs: List[Site] = []
        #: (class, its bases' names, the names its body binds)
        self.classes: List[Tuple[Site, List[str], List[str]]] = []
        #: (call site, whether the callee is a bare name, the call)
        self.calls: List[Tuple[Site, bool, ast.Call]] = []
        self.imports: List[Union[ast.Import, ast.ImportFrom]] = []
        self.aliases: Dict[str, str] = {}

    def _site(self, node: ast.AST, name: str) -> Site:
        return Site(self.path, node.lineno, ".".join(self.scope), name)

    def visit_FunctionDef(self, node) -> None:
        self.defs.append(self._site(node, node.name))
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bound = []
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.append(item.name)
            elif isinstance(item, ast.Assign):
                bound += [t.id for t in item.targets if isinstance(t, ast.Name)]
        bases = [_name(base) for base in node.bases]
        self.classes.append((self._site(node, node.name), bases, bound))
        self.visit_FunctionDef(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _name(node.func)
        if name:
            bare = isinstance(node.func, ast.Name)
            self.calls.append((self._site(node, name), bare, node))
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        self.imports.append(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imports.append(node)
        for alias in node.names:
            if alias.asname:
                self.aliases[alias.asname] = alias.name

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, (ast.Name, ast.Attribute)):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.aliases[target.id] = _name(node.value)
        self.generic_visit(node)


class Source:
    """One file: its text, read once, and its ``ast``, parsed on first use."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text

    @cached_property
    def tree(self) -> ast.Module:
        return ast.parse(self.text, self.path)

    @cached_property
    def index(self) -> _Index:
        index = _Index(self.path)
        index.visit(self.tree)
        return index

    def grep(self, pattern: Pattern) -> List[str]:
        """The lines ``grep -nF`` (``-nE`` for a compiled pattern) prints."""
        if isinstance(pattern, str):
            if pattern not in self.text:
                return []
            hit = lambda line: pattern in line  # noqa: E731
        else:
            hit = pattern.search
        return [
            f"{self.path}:{number}: {line.strip()}"
            for number, line in enumerate(self.text.split("\n"), 1)
            if hit(line)
        ]

    def resolve(self, name: str) -> str:
        """Follow the module's aliases from ``name`` to the name it binds."""
        seen = {name}
        while self.index.aliases.get(name, name) not in seen:
            name = self.index.aliases[name]
            seen.add(name)
        return name


Edit = Callable[[Optional[str]], str]


class Tree:
    """The repository's ``*.py`` files, keyed by path from the root."""

    def __init__(self, sources: Mapping[str, Source]) -> None:
        self.sources = dict(sorted(sources.items()))

    @classmethod
    def read(cls, root: Path) -> "Tree":
        sources = {}
        for folder, dirs, files in os.walk(root):
            dirs[:] = [d for d in dirs if d not in (".git", "__pycache__")]
            for file in files:
                if file.endswith(".py"):
                    path = Path(folder, file)
                    rel = path.relative_to(root).as_posix()
                    sources[rel] = Source(rel, path.read_text(encoding="utf-8"))
        return cls(sources)

    def planted(self, edits: Mapping[str, Edit]) -> "Tree":
        """This tree with each ``path`` replaced by ``edit(text)`` (the
        text is None for a new file)."""
        sources = dict(self.sources)
        for path, edit in edits.items():
            old = sources.get(path)
            sources[path] = Source(path, edit(None if old is None else old.text))
        return Tree(sources)

    def under(self, *prefixes: str) -> List[Source]:
        """The sources whose path starts with one of ``prefixes``."""
        return [s for path, s in self.sources.items() if path.startswith(prefixes)]

    def grep(self, pattern: Pattern, *prefixes: str) -> List[str]:
        return [hit for source in self.under(*prefixes) for hit in source.grep(pattern)]

    def naming(self, name: str, *prefixes: str) -> List[Source]:
        """The sources under ``prefixes`` whose text holds ``name``: the
        only ones that can define it, call it or bind an alias to it."""
        return [source for source in self.under(*prefixes) if name in source.text]

    def defs(self, name: str, *prefixes: str) -> List[Site]:
        return [
            site
            for source in self.naming(name, *prefixes)
            for site in source.index.defs
            if site.name == name
        ]

    def call_sites(self, name: str, *prefixes: str) -> List[Site]:
        """Every call of ``name``, as ``name(...)`` or ``x.name(...)``,
        or through a name the module binds to it."""
        return [
            site._replace(name=name)
            for source in self.naming(name, *prefixes)
            for site, bare, _ in source.index.calls
            if (source.resolve(site.name) if bare else site.name) == name
        ]


def _count(hits: list, want: int, message: str) -> Violations:
    """No violation when there are ``want`` hits (-1: never); else the
    message and the hits."""
    if len(hits) == want:
        return []
    return [f"{message} (found {len(hits)})", *map(str, hits)]


def _gone(tree: Tree, pattern: Pattern, *prefixes: str) -> Violations:
    text = pattern if isinstance(pattern, str) else pattern.pattern
    where = ", ".join(prefixes)
    return _count(tree.grep(pattern, *prefixes), 0, f"{text} is gone from {where}")


def _one(
    sites: List[Site], what: str, path: str, scope: Optional[str] = None
) -> Violations:
    """``sites`` is exactly one site, in ``path`` (at ``scope``, if given)."""
    if len(sites) == 1 and sites[0].path == path and scope in (None, sites[0].scope):
        return []
    where = path if scope is None else f"{scope or '<module>'} of {path}"
    return _count(sites, -1, f"expected exactly one {what}, in {where}")


Contract = Callable[[Tree], Violations]
CONTRACTS: List[Contract] = []


def contract(check: Contract) -> Contract:
    """Register ``check``: it runs on the tree and must have plantings."""
    CONTRACTS.append(check)
    return check


@contract
def one_process_pool(tree: Tree) -> Violations:
    """campaign/runner.py owns the only fan-out: one ``ProcessPoolExecutor``
    call in src/repro, aliases included."""
    return _count(
        tree.grep("ProcessPoolExecutor(", SRC), 1,
        "expected exactly one ProcessPoolExecutor( in src/repro",
    ) + _one(
        tree.call_sites("ProcessPoolExecutor", SRC),
        "ProcessPoolExecutor call", "src/repro/campaign/runner.py",
    )


@contract
def every_module_has_a_caller(tree: Tree) -> Violations:
    """Every module of src/repro is reachable by imports from
    ``repro.__main__`` (the CLI) or a benchmark workload."""
    modules = {}
    for source in tree.under(SRC):
        parts = PurePosixPath(source.path).relative_to("src").with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = source

    def imports(source, name):
        init = source.path.endswith("/__init__.py")
        package = name.split(".")[: None if init else -1]
        for node in source.index.imports:
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    up = package[: len(package) - node.level + 1]
                    base = ".".join(up + ([node.module] if node.module else []))
                yield base
                yield from (f"{base}.{alias.name}" for alias in node.names)

    roots = [s for s in tree.under(BENCH) if "/" not in s.path[len(BENCH):]]
    reached = {"repro.__main__"}
    todo = [("repro.__main__", modules["repro.__main__"])] + [("", s) for s in roots]
    while todo:
        name, source = todo.pop()
        # `import repro` re-exports a convenience surface: a module
        # that only that file imports has no caller.
        for target in () if name == "repro" else imports(source, name):
            parts = target.split(".")
            for mod in (".".join(parts[:i]) for i in range(1, len(parts) + 1)):
                if mod in modules and mod not in reached:
                    reached.add(mod)
                    todo.append((mod, modules[mod]))
    return [
        f"{name} is imported by no CLI command or benchmark workload"
        for name in sorted(set(modules) - reached)
    ]


@contract
def one_layout_producer(tree: Tree) -> Violations:
    """The ArrayLayout is the one cluster structure any code assembles;
    its ClusterLayout view is built in one place,
    ``ArrayLayout.cluster_layout``, and the retired second extraction,
    serializer and duty scan stay gone."""
    found = _count(
        tree.grep("ClusterLayout(", SRC), 1,
        "expected exactly one ClusterLayout( in src/repro",
    ) + _one(
        tree.call_sites("ClusterLayout", SRC),
        "ClusterLayout call", LAYOUT, "ArrayLayout.cluster_layout",
    )
    for name in ("extract_layout", "layout_topology_detail", "_gateway_ranks"):
        found += _gone(tree, name, SRC)
    return found


@contract
def one_scorer(tree: Tree) -> Violations:
    """``score_knowledge`` (metrics/properties.py) is the only
    completeness/accuracy scorer; the pair loops it replaced, the dead
    ``knowledge_of`` and the second summary module stay gone."""
    summary = "src/repro/metrics/summary.py"
    found = _count(
        tree.grep("def score_knowledge", SRC), 1,
        "expected exactly one def score_knowledge in src/repro",
    ) + _one(
        tree.defs("score_knowledge", SRC),
        "score_knowledge", "src/repro/metrics/properties.py", "",
    )
    for name in ("_observer_ids", "completeness_of(", "knowledge_of("):
        found += _gone(tree, name, SRC)
    found += _gone(tree, "metrics/summary.py", SRC)
    return found + ([f"{summary} is gone"] if summary in tree.sources else [])


@contract
def one_trace_sink(tree: Tree) -> Violations:
    """Every record enters a sink through ``Tracer.emit``; ``Tracer.record``
    (sim/trace.py) is its one keyword adapter, no sink overrides it, and
    the ``row()`` write path and ``emit`` of a whole TraceRecord stay
    gone."""
    found = _count(
        tree.grep("def record(", TRACE, SPOOL), 1,
        "expected exactly one def record( in sim/trace.py + obs/spool.py",
    ) + _one(tree.defs("record", TRACE, SPOOL), "record", TRACE, "Tracer")
    found += _count(
        tree.grep("def row(", SRC), 0, "Tracer.row is gone; sinks define emit only"
    )
    message = "emit takes (time, kind, node, keys, *values), not a TraceRecord"
    found += _count(tree.grep(EMIT_RECORD, SRC, TESTS), 0, message)
    found += [
        f"{site}: {message}"
        for source in tree.naming("TraceRecord", SRC, TESTS)
        for site, _, node in source.index.calls
        if site.name == "emit" and node.args and isinstance(node.args[0], ast.Call)
        and _name(node.args[0].func) == "TraceRecord"
    ]
    # The subclasses of Tracer, to any depth: a file can only subclass a
    # sink whose name its text holds.
    sinks = {"Tracer"}
    while True:
        classes = [
            (site, [source.resolve(base) for base in bases], bound)
            for source in tree.under(SRC, TESTS)
            if any(sink in source.text for sink in sinks)
            for site, bases, bound in source.index.classes
        ]
        more = {site.name for site, bases, _ in classes if sinks.intersection(bases)}
        if more <= sinks:
            break
        sinks |= more
    return found + [
        f"{site}: a Tracer subclass defines {name}; sinks define emit only"
        for site, _, bound in classes
        if site.name in sinks and (site.path, site.name) != (TRACE, "Tracer")
        for name in ("row", "record")
        if name in bound
    ]


@contract
def one_scenario_description(tree: Tree) -> Violations:
    """``ScenarioConfig`` is the one scenario description and
    ``run_engine`` (experiments/runner.py) the one run skeleton: the only
    caller of the faultload and run-header owners.  Every event run in
    the experiments is assembled by the EventEngine in runner.py."""
    found = []
    for name in ("scenario_faultload", "stamp_run_header"):
        call = f"{name}("
        hits = [hit for hit in tree.grep(call, SRC) if f"def {call}" not in hit]
        message = f"expected exactly one call site of {call} in src/repro"
        found += _count(hits, 1, message)
        found += _one(tree.call_sites(name, SRC), f"{name} call", RUNNER, "run_engine")
    found += _gone(tree, re.compile(r"class (ScenarioSpec|RtScenario)\b"), SRC)
    found += [
        f"{site}: ScenarioConfig is the only scenario description"
        for source in tree.under(SRC)
        for site, _, _ in source.index.classes
        if site.name in ("ScenarioSpec", "RtScenario")
    ]
    experiments = [
        s.path
        for s in tree.under("src/repro/experiments/")
        if not s.path.endswith("/runner.py")
    ]
    for name in ("build_network", "install_fds"):
        message = f"{name}( belongs to the EventEngine (experiments/runner.py) only"
        found += _count(tree.grep(f"{name}(", *experiments), 0, message)
        found += [
            f"{site}: {message}"
            for site in tree.call_sites(name, "src/repro/experiments/")
            if site.path != RUNNER
        ]
    retired = re.compile(r"\b(corridor_field|single_cluster_disk)\b")
    return found + _gone(tree, retired, SRC)


@contract
def one_rule_kernel(tree: Tree) -> Violations:
    """The two detection rules exist once, as the masks in fds/detector.py
    that every engine evaluates; the lattice is drawn once
    (topology/generators.py: ``draw_lattice``), with one set of field
    checks."""
    scalar_rules = re.compile(
        "DetectionInputs|apply_failure_rule|apply_ch_failure_rule|evidence_of"
    )
    found = _gone(tree, scalar_rules, SRC)
    found += _gone(tree, "sample_in_disk", GENERATORS)
    hits = tree.grep("spacing_factor must be in (1, 2)", SRC)
    if len(hits) > 1:
        found += _count(hits, 1, "expected the lattice field checks once in src/repro")
    for name in ("evidence_mask", "failure_rule_mask", "ch_failure_rule_mask"):
        found += _one(tree.defs(name, SRC), name, DETECTOR, "")
    return found + _one(tree.defs("draw_lattice", SRC), "draw_lattice", GENERATORS, "")


@contract
def one_trace_line_codec(tree: Tree) -> Violations:
    """``record_line`` (sim/trace.py) is the one serializer of trace
    lines: the spool, the rt merge, the SSE tail and the differential
    audit call it and encode no record of their own."""
    found = []
    hits = tree.grep(RECORD_LINE_DEF, "")
    if len(hits) != 1 or not hits[0].startswith(f"{TRACE}:"):
        found += _count(hits, -1, f"expected exactly one {RECORD_LINE_DEF}, in {TRACE}")
    found += _one(tree.defs("record_line", ""), "record_line", TRACE, "")
    message = "trace lines are encoded by record_line only"
    encoders = re.compile(r"JSONEncoder\(|sort_keys=True")
    found += _count(tree.grep(encoders, *LINE_WRITERS), 0, message)
    found += [
        f"{site}: {message}" for site in tree.call_sites("JSONEncoder", *LINE_WRITERS)
    ]
    for source in tree.under(*LINE_WRITERS):
        for site, _, node in source.index.calls:
            for keyword in node.keywords:
                value = keyword.value
                false = isinstance(value, ast.Constant) and not value.value
                if keyword.arg == "sort_keys" and not false:
                    found.append(f"{site}: sort_keys: {message}")
    return found


def _lookups(source: Source) -> List[str]:
    """``Class.method`` of every ``[type(payload)]`` subscript in a
    method of the module: a receive-table dispatch."""
    found = []
    for cls in source.tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                key = node.slice if isinstance(node, ast.Subscript) else None
                if (
                    isinstance(key, ast.Call) and _name(key.func) == "type"
                    and [_name(arg) for arg in key.args] == ["payload"]
                ):
                    found.append(f"{cls.name}.{fn.name}")
    return found


@contract
def one_receive_path(tree: Tree) -> Violations:
    """A delivered copy reaches its handler through the receiver's
    table, ``{payload type: handler(payload)}``, in the one frame of the
    medium's lane callback (``RadioMedium._deliver_copy``) or the rt
    link's ``UdpLink.datagram_received``: no protocol defines
    ``on_receive``, nothing dispatches on a table's payload types with
    ``isinstance``, and neither carrier builds an ``Envelope``."""
    found = _gone(tree, "def on_receive(", *RECEIVE_CODE)
    found += _gone(tree, "isinstance(payload, ", *RECEIVE_CODE)
    found += _gone(tree, "Envelope(", MEDIUM, LINK)
    found += [
        f"{site}: no Envelope is built; handlers take the payload"
        for site in tree.call_sites("Envelope", MEDIUM, LINK)
    ]
    found += _gone(tree, re.compile(r"def (_deliver|_on_envelope)\("), SRC)
    for path, method in ((MEDIUM, "RadioMedium._deliver_copy"),
                         (LINK, "UdpLink.datagram_received")):
        source = tree.sources.get(path)
        if source is None or method not in _lookups(source):
            found.append(f"{path}: {method} calls the node's table[type(payload)]")
    # The payload types some receive table takes (the keys of the dicts
    # in every ``handlers`` method) ...
    kinds = set()
    for source in tree.naming("def handlers(", SRC):
        for fn in ast.walk(source.tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "handlers":
                for node in ast.walk(fn):
                    if isinstance(node, ast.Dict):
                        kinds.update(_name(key) for key in node.keys if key)
    kinds.discard("")
    # ... are dispatched by the table only, ...
    for source in tree.under(SRC):
        for site, _, call in source.index.calls:
            if site.name != "isinstance" or len(call.args) != 2:
                continue
            against = call.args[1]
            names = against.elts if isinstance(against, ast.Tuple) else [against]
            hit = kinds.intersection(source.resolve(_name(n)) for n in names)
            if hit:
                found.append(f"{site}: isinstance dispatch on {sorted(hit)}")
    # ... and no Protocol subclass, at any depth, binds on_receive.
    protocols = {"Protocol"}
    while True:
        classes = [
            (site, [source.resolve(base) for base in bases], bound)
            for source in tree.under(SRC)
            if any(name in source.text for name in protocols)
            for site, bases, bound in source.index.classes
        ]
        more = {site.name for site, bases, _ in classes if protocols.intersection(bases)}
        if more <= protocols:
            break
        protocols |= more
    return found + [
        f"{site}: a Protocol declares handlers(), not on_receive"
        for site, bases, bound in classes
        if protocols.intersection(bases) and "on_receive" in bound
    ]


#: The verdict kinds, as the constants of fds/events.py and as text.
VERDICT_NAMES = ("DETECTION", "REFUTATION")
VERDICT_TEXTS = ("fds.detection", "fds.refutation")
_VERDICT = r"""(?:\w+\.)?(?:DETECTION|REFUTATION)\b|["']fds\.(?:detection|refutation)["']"""
#: A record filter or comparison on a verdict kind, and a target read.
VERDICT_FILTER = re.compile(
    rf"\b(?:iter_kind|count|filter)\(\s*(?:{_VERDICT})"
    rf"|[=!]=\s*(?:{_VERDICT})|(?:{_VERDICT})\s*[=!]="
)
TARGET_READ = re.compile(r"""detail(?:\[\s*["']target["']\s*\]|\.get\(\s*["']target["'])""")


def _verdict_reads(source: Source, exempt: range) -> List[str]:
    """Every filter of records by a verdict kind (``iter_kind`` /
    ``count`` / ``filter`` of one, ``==`` / ``!=`` / ``in`` against one)
    and every ``detail["target"]`` / ``detail.get("target")`` in the
    module, outside the ``exempt`` lines."""

    def verdict(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return node.value in VERDICT_TEXTS
        return source.resolve(_name(node)) in VERDICT_NAMES

    def target(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and node.value == "target"

    found = []
    for node in ast.walk(source.tree):
        if getattr(node, "lineno", 0) in exempt:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            operands += [
                element for operand in operands
                if isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                for element in operand.elts
            ]
            hit = any(map(verdict, operands))
        elif isinstance(node, ast.Call):
            func, args = node.func, node.args
            hit = (
                _name(func) in ("iter_kind", "count", "filter")
                and any(map(verdict, args))
            ) or (
                isinstance(func, ast.Attribute) and func.attr == "get"
                and _name(func.value) == "detail" and args and target(args[0])
            )
        elif isinstance(node, ast.Subscript):
            hit = _name(node.value) == "detail" and target(node.slice)
        else:
            continue
        if hit:
            found.append(f"{source.path}:{node.lineno}: {ast.unparse(node)}")
    return found


@contract
def one_verdict_reader(tree: Tree) -> Violations:
    """``VerdictTimeline`` (obs/verdicts.py) is the one reader of
    detection and refutation records: nothing else in src/repro filters
    records by a verdict kind or reads a verdict record's
    ``detail["target"]``.  The emitters, the kind constants, the engine
    pair's ``VERDICT_KINDS`` tuple and the lineage notes' display text
    (``_note_for`` in obs/analyze.py) name the kinds and stay."""
    found = _one(tree.defs("VerdictTimeline", SRC), "VerdictTimeline", VERDICTS, "")
    notes = [
        range(node.lineno, node.end_lineno + 1)
        for node in tree.sources[ANALYZE].tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_note_for"
    ] if ANALYZE in tree.sources else []
    message = "verdict records are read by VerdictTimeline only"
    for source in tree.under(SRC):
        if source.path == VERDICTS:
            continue
        exempt = notes[0] if source.path == ANALYZE and notes else range(0)
        hits = [
            hit for pattern in (VERDICT_FILTER, TARGET_READ)
            for hit in source.grep(pattern)
            if int(hit.split(":")[1]) not in exempt
        ]
        found += _count(hits, 0, f"{message} ({source.path})")
        found += [f"{hit}: {message}" for hit in _verdict_reads(source, exempt)]
    return found


#: A pack, an unpack, or a bit order chosen in place.
BIT_LAYOUT = re.compile(r"\b(?:un)?packbits\b|\bbitorder\s*=")


@contract
def one_pair_bit_layout(tree: Tree) -> Violations:
    """sim/array_engine/bits.py owns the array engine's bit layout (the
    packed member adjacency and ``hb_mm`` cube, the knowledge-row
    bitmasks): ``pack`` and ``unpack`` are defined there, and no other
    array-engine module calls ``packbits`` / ``unpackbits`` or passes
    ``bitorder=``."""
    found = []
    for name in ("pack", "unpack"):
        found += _one(tree.defs(name, ARRAY_ENGINE), name, BITS, "")
    others = [s.path for s in tree.under(ARRAY_ENGINE) if s.path != BITS]
    message = f"bits are packed and unpacked by {BITS} only"
    found += _count(tree.grep(BIT_LAYOUT, *others), 0, message)
    for name in ("packbits", "unpackbits"):
        found += [f"{site}: {message}" for site in tree.call_sites(name, *others)]
    return found + [
        f"{site}: bitorder=: {message}"
        for source in tree.under(*others)
        for site, _, node in source.index.calls
        if any(keyword.arg == "bitorder" for keyword in node.keywords)
    ]


#: A random stream's generator state, read or set, or its ``advance``.
REWIND = re.compile(r"\bbit_generator\b|\.advance\(")


@contract
def one_stream_rewind(tree: Tree) -> Violations:
    """sim/array_engine/loss.py owns rewinding a random stream (the
    uniform tape's snapshot, restore and ``advance``): no other module of
    src/repro reads or writes ``bit_generator`` or calls ``advance``,
    through an alias included."""
    others = [s.path for s in tree.under(SRC) if s.path != LOSS]
    message = f"random streams are rewound by {LOSS} only"
    found = _count(tree.grep(REWIND, *others), 0, message)
    found += [f"{site}: {message}" for site in tree.call_sites("advance", *others)]
    return found + [
        f"{source.path}:{node.lineno}: bit_generator: {message}"
        for source in tree.naming("bit_generator", *others)
        for node in ast.walk(source.tree)
        if isinstance(node, ast.Attribute) and node.attr == "bit_generator"
    ]


# -- plantings --------------------------------------------------------------


def add(code: str) -> Edit:
    """Append ``code`` to the file (a new file when there is none)."""
    return lambda text: (text or "") + "\n" + textwrap.dedent(code) + "\n"


def sub(old: str, new: str) -> Edit:
    """Replace every ``old`` in the file, which must contain it."""

    def edit(text: Optional[str]) -> str:
        assert text is not None and old in text, f"nothing to plant over: {old!r}"
        return text.replace(old, new)

    return edit


def both(first: Edit, then: Edit) -> Edit:
    return lambda text: then(first(text))


def plant(check: Contract, label: str, edits: Mapping[str, Edit]):
    return pytest.param(check, edits, id=f"{check.__name__}-{label}")


POOL = "src/repro/campaign/runner.py"
MC = "src/repro/analysis/montecarlo.py"
GEOMETRIC = "src/repro/cluster/geometric.py"
PROPERTIES = "src/repro/metrics/properties.py"
ARRAY_RUNNER = "src/repro/sim/array_engine/runner.py"
SERVICE = "src/repro/fds/service.py"
ABLATIONS = "src/repro/experiments/ablations.py"
SCENARIOS = "src/repro/experiments/scenarios.py"
ORPHAN = "src/repro/util/orphan.py"
INVARIANTS = "src/repro/audit/invariants.py"
TEST = "tests/test_planted.py"
ROUNDS = "src/repro/sim/array_engine/rounds.py"

SECOND_POOL = """
    from concurrent.futures import ProcessPoolExecutor

    def fan_out():
        return ProcessPoolExecutor(2)
"""
NO_POOL = sub("ProcessPoolExecutor(max_workers=workers)", "None")
SECOND_SCORER = "def score_knowledge(known): return known"
NO_SCORER = sub("def score_knowledge(", "def score_matrix(")
RECORD_SINK = """
    from repro.sim.trace import {base}

    class Keyword({base}):
        def record(self, time, kind, node=None, **detail):
            pass
"""
SECOND_RECORD_LINE = f"{RECORD_LINE_DEF}time, kind, node, detail): return ''"
NO_RECORD_LINE = sub(RECORD_LINE_DEF, "def encode_line(")

PLANTINGS = [
    plant(one_process_pool, "second_pool", {MC: add(SECOND_POOL)}),
    plant(one_process_pool, "no_pool", {POOL: NO_POOL}),
    plant(one_process_pool, "pool_moved", {POOL: NO_POOL, MC: add(SECOND_POOL)}),
    plant(one_process_pool, "pool_in_a_comment", {MC: add("# ProcessPoolExecutor(2)")}),
    plant(one_process_pool, "pool_imported_as", {MC: add("""
        from concurrent.futures import ProcessPoolExecutor as Pool

        def fan_out():
            return Pool(2)
    """)}),
    plant(one_process_pool, "pool_assigned_to", {MC: add("""
        import concurrent.futures

        Pool = concurrent.futures.ProcessPoolExecutor

        def fan_out():
            return Pool(2)
    """)}),
    plant(every_module_has_a_caller, "unimported_module", {ORPHAN: add("X = 1")}),
    plant(every_module_has_a_caller, "imported_only_by_the_package_init", {
        ORPHAN: add("X = 1"),
        "src/repro/__init__.py": add("from repro.util import orphan"),
    }),
    plant(every_module_has_a_caller, "imported_only_by_a_test", {
        ORPHAN: add("X = 1"),
        TEST: add("import repro.util.orphan"),
    }),
    plant(one_layout_producer, "second_view", {
        GEOMETRIC: add("def view(layout): return ClusterLayout(layout, None)"),
    }),
    plant(one_layout_producer, "no_view", {
        LAYOUT: sub("return ClusterLayout(self, graph)", "return None"),
    }),
    plant(one_layout_producer, "view_outside_cluster_layout", {
        LAYOUT: sub("def cluster_layout(", "def layout_view("),
    }),
    plant(one_layout_producer, "view_imported_as", {GEOMETRIC: add("""
        from repro.cluster.state import ClusterLayout as View

        def view(layout):
            return View(layout, None)
    """)}),
    plant(one_layout_producer, "extract_layout", {
        "src/repro/cluster/formation.py": add("def extract_layout(s): return s"),
    }),
    plant(one_layout_producer, "layout_topology_detail", {
        "src/repro/obs/topology.py": add("def layout_topology_detail(l): return {}"),
    }),
    plant(one_layout_producer, "gateway_ranks", {
        LAYOUT: add("def _gateway_ranks(layout): return []"),
    }),
    plant(one_scorer, "second_scorer", {ARRAY_RUNNER: add(SECOND_SCORER)}),
    plant(one_scorer, "no_scorer", {PROPERTIES: NO_SCORER}),
    plant(one_scorer, "scorer_moved", {
        PROPERTIES: NO_SCORER, ARRAY_RUNNER: add(SECOND_SCORER),
    }),
    plant(one_scorer, "observer_ids", {
        PROPERTIES: add("def _observer_ids(deployment): return []"),
    }),
    plant(one_scorer, "completeness_of", {
        "src/repro/metrics/collectors.py": add("def completeness_of(node): return 1.0"),
    }),
    plant(one_scorer, "knowledge_of", {
        PROPERTIES: add("def knowledge_of(node): return set()"),
    }),
    plant(one_scorer, "summary_module_named", {
        PROPERTIES: add("# see metrics/summary.py"),
    }),
    plant(one_scorer, "summary_module", {"src/repro/metrics/summary.py": add("X = 1")}),
    plant(one_trace_sink, "second_record_in_trace", {
        TRACE: add(RECORD_SINK.format(base="RecordingTracer")),
    }),
    plant(one_trace_sink, "record_in_spool", {
        SPOOL: add(RECORD_SINK.format(base="Tracer")),
    }),
    plant(one_trace_sink, "no_record", {TRACE: sub("def record(", "def keyword(")}),
    plant(one_trace_sink, "row_helper_in_fds_service", {
        SERVICE: add("def row(seen): return seen"),
    }),
    plant(one_trace_sink, "emit_record_in_src", {
        TRACE: add(f"def replay(tracer, r): tracer.{EMIT_RECORD}(r.time, r.kind))"),
    }),
    plant(one_trace_sink, "emit_record_in_tests", {
        TEST: add(f"def replay(tracer, r): tracer.{EMIT_RECORD}(r.time, r.kind))"),
    }),
    plant(one_trace_sink, "emit_record_across_lines", {TEST: add("""
        def replay(tracer, r):
            tracer.emit(
                TraceRecord(r.time, r.kind))
    """)}),
    plant(one_trace_sink, "record_in_a_test_sink", {
        TEST: add(RECORD_SINK.format(base="RecordingTracer")),
    }),
    plant(one_trace_sink, "row_in_a_grandchild_test_sink", {TEST: add("""
        from repro.sim import trace

        class Keeping(trace.RecordingTracer):
            pass

        class Rows(Keeping):
            def row(self, *values):
                pass
    """)}),
    plant(one_trace_sink, "row_bound_in_a_test_sink", {TEST: add("""
        from repro.sim.trace import NullTracer

        class Rows(NullTracer):
            row = NullTracer.emit
    """)}),
    plant(one_trace_sink, "row_in_a_sink_imported_as", {TEST: add("""
        from repro.obs.spool import SpoolingTracer as Spool

        class Rows(Spool):
            def row(self, *values):
                pass
    """)}),
    plant(one_scenario_description, "second_faultload_call", {
        ABLATIONS: add("def faults(*a): return scenario_faultload(*a)"),
    }),
    plant(one_scenario_description, "no_faultload_call", {
        RUNNER: sub("faultload = scenario_faultload(", "faultload = print("),
    }),
    plant(one_scenario_description, "faultload_outside_run_engine", {RUNNER: both(
        sub("faultload = scenario_faultload(", "faultload = _faults("),
        add("def _faults(*a, **k): return scenario_faultload(*a, **k)"),
    )}),
    plant(one_scenario_description, "second_header_call", {
        SCENARIOS: add("def header(*a): stamp_run_header(*a)"),
    }),
    plant(one_scenario_description, "no_header_call", {
        RUNNER: sub("stamp_run_header(\n", "print(\n"),
    }),
    plant(one_scenario_description, "scenario_spec", {
        SCENARIOS: add("class ScenarioSpec: pass"),
    }),
    plant(one_scenario_description, "rt_scenario_class", {
        "src/repro/rt/runtime.py": add("class RtScenario(object): pass"),
    }),
    plant(one_scenario_description, "scenario_spec_spaced", {
        SCENARIOS: add("class  ScenarioSpec: pass"),
    }),
    plant(one_scenario_description, "build_network_in_ablations", {
        ABLATIONS: add("def net(config): return build_network(config)"),
    }),
    plant(one_scenario_description, "install_fds_in_scenarios", {
        SCENARIOS: add("def fds(network): return install_fds(network)"),
    }),
    plant(one_scenario_description, "build_network_imported_as", {ABLATIONS: add("""
        from repro.sim.network import build_network as assemble

        def net(config):
            return assemble(config)
    """)}),
    plant(one_scenario_description, "corridor_field", {
        GENERATORS: add("def corridor_field(n): return n"),
    }),
    plant(one_scenario_description, "single_cluster_disk", {
        "src/repro/topology/placement.py": add("single_cluster_disk = None"),
    }),
    plant(one_rule_kernel, "detection_inputs", {
        DETECTOR: add("class DetectionInputs: pass"),
    }),
    plant(one_rule_kernel, "apply_failure_rule", {
        DETECTOR: add("def apply_failure_rule(inputs): return inputs"),
    }),
    plant(one_rule_kernel, "apply_ch_failure_rule", {
        SERVICE: add("def apply_ch_failure_rule(inputs): return inputs"),
    }),
    plant(one_rule_kernel, "evidence_of", {
        "src/repro/fds/intercluster.py": add("def evidence_of(node): return True"),
    }),
    plant(one_rule_kernel, "sample_in_disk_in_the_lattice_draw", {
        GENERATORS: add("from repro.util.geometry import sample_in_disk"),
    }),
    plant(one_rule_kernel, "second_field_check", {
        LAYOUT: add('MESSAGE = "spacing_factor must be in (1, 2) so disks overlap"'),
    }),
    plant(one_rule_kernel, "second_failure_rule_mask", {
        ARRAY_RUNNER: add("def failure_rule_mask(*planes): return planes"),
    }),
    plant(one_rule_kernel, "no_ch_failure_rule_mask", {
        DETECTOR: sub("def ch_failure_rule_mask(", "def ch_rule("),
    }),
    plant(one_rule_kernel, "second_lattice_draw", {
        LAYOUT: add("def draw_lattice(*fields): return fields"),
    }),
    plant(one_trace_line_codec, "second_def", {TRACE: add(SECOND_RECORD_LINE)}),
    plant(one_trace_line_codec, "def_in_obs_analyze", {
        "src/repro/obs/analyze.py": add(SECOND_RECORD_LINE),
    }),
    plant(one_trace_line_codec, "def_in_tests", {TEST: add(SECOND_RECORD_LINE)}),
    plant(one_trace_line_codec, "def_in_examples", {
        "examples/planted.py": add(SECOND_RECORD_LINE),
    }),
    plant(one_trace_line_codec, "no_def", {TRACE: NO_RECORD_LINE}),
    plant(one_trace_line_codec, "def_moved", {
        TRACE: NO_RECORD_LINE, SPOOL: add(SECOND_RECORD_LINE),
    }),
    *(
        plant(one_trace_line_codec, f"{label}_in_{PurePosixPath(path).stem}", {
            path: add(f"import json\ndef line(record): return {code}"),
        })
        for path in LINE_WRITERS
        for label, code in [
            ("encoder", "json.JSONEncoder().encode(record)"),
            ("sort_keys", "json.dumps(record, sort_keys=True)"),
        ]
    ),
    plant(one_trace_line_codec, "encoder_imported_as", {SPOOL: add("""
        from json import JSONEncoder as Encoder

        ENCODE = Encoder().encode
    """)}),
    plant(one_trace_line_codec, "sort_keys_spaced", {
        HTTP: add("import json\ndef body(x): return json.dumps(x, sort_keys = True)"),
    }),
    plant(one_receive_path, "on_receive_in_fds", {SERVICE: add("""
        class Listener(Protocol):
            def on_receive(self, envelope):
                pass
    """)}),
    plant(one_receive_path, "on_receive_outside_the_protocol_packages", {
        "src/repro/audit/probe.py": add("""
            from repro.sim.node import Protocol as Base

            class Listener(Base):
                def on_receive(self, envelope):
                    pass
        """),
    }),
    plant(one_receive_path, "on_receive_in_a_grandchild_bound_by_name", {
        "src/repro/audit/probe.py": add("""
            from repro.fds.service import FdsProtocol

            class Quiet(FdsProtocol):
                pass

            class Loud(Quiet):
                on_receive = print
        """),
    }),
    plant(one_receive_path, "isinstance_chain", {SERVICE: add("""
        def dispatch(self, payload):
            if isinstance(payload, Heartbeat):
                self._on_heartbeat(payload)
    """)}),
    plant(one_receive_path, "isinstance_on_a_table_type_elsewhere", {
        "src/repro/audit/probe.py": add("""
            from repro.cluster.formation import ClusterDissolve as Dissolve

            def dissolves(message):
                return isinstance(message, (int, Dissolve))
        """),
    }),
    plant(one_receive_path, "envelope_in_the_medium", {MEDIUM: add(
        "def wrap(p): return Envelope(0, None, p, 0.0, 0.0, False)"
    )}),
    plant(one_receive_path, "envelope_in_the_link_assigned_to", {LINK: add("""
        from repro.sim import medium

        Env = medium.Envelope

        def wrap(p):
            return Env(0, None, p, 0.0, 0.0, False)
    """)}),
    plant(one_receive_path, "deliver_frame_back", {MEDIUM: add(
        "def _deliver(medium, receiver, payload): pass"
    )}),
    plant(one_receive_path, "medium_off_the_table", {MEDIUM: sub(
        "handler = table[type(payload)]",
        "handler = table[payload.__class__]",
    )}),
    plant(one_receive_path, "link_off_the_table", {LINK: sub(
        "handler = self._table[type(payload)]",
        "handler = self._table[payload.__class__]",
    )}),
    plant(one_verdict_reader, "no_kernel", {
        VERDICTS: sub("class VerdictTimeline:", "class Timeline:"),
    }),
    plant(one_verdict_reader, "second_kernel", {
        "src/repro/audit/differential.py": add("class VerdictTimeline: pass"),
    }),
    plant(one_verdict_reader, "iter_kind_in_audit", {INVARIANTS: add(
        "def detections(tracer): return list(tracer.iter_kind(ev.DETECTION))"
    )}),
    plant(one_verdict_reader, "target_read_in_experiments", {
        ABLATIONS: add("def target(record): return record.detail['target']"),
    }),
    plant(one_verdict_reader, "target_get_in_serve", {
        "src/repro/serve/state.py": add('def target(r): return r.detail.get("target")'),
    }),
    plant(one_verdict_reader, "count_of_refutations", {
        SCENARIOS: add("def refuted(result): return result.tracer.count(ev.REFUTATION)"),
    }),
    plant(one_verdict_reader, "kind_compared_outside_the_notes", {
        ANALYZE: add('def detection(record): return record.kind == "fds.detection"'),
    }),
    plant(one_verdict_reader, "kind_imported_as", {INVARIANTS: add("""
        from repro.fds.events import REFUTATION as REFUTED

        def refutations(tracer):
            return tracer.filter(
                REFUTED)
    """)}),
    plant(one_verdict_reader, "kind_in_a_tuple", {PROPERTIES: add("""
        def verdicts(records):
            return [r for r in records if r.kind in ("fds.refutation", "x")]
    """)}),
    plant(one_pair_bit_layout, "unpack_adjacency_in_rounds", {ROUNDS: add(
        "def cube(layout): return np.unpackbits(layout.adjacency, axis=-1)"
    )}),
    plant(one_pair_bit_layout, "big_endian_in_loss", {LOSS: sub(
        "bits.pack(alive)[:, None, :]",
        'np.packbits(alive, axis=-1, bitorder="big")[:, None, :]',
    )}),
    plant(one_pair_bit_layout, "bitorder_through_a_helper", {LOSS: add(
        'def senders(alive): return bits.pack(alive, bitorder="big")'
    )}),
    plant(one_pair_bit_layout, "unpack_imported_as", {
        "src/repro/sim/array_engine/layout.py": add("""
            from numpy import unpackbits as spread

            def cube(adjacency):
                return spread(adjacency, axis=-1)
        """),
    }),
    plant(one_pair_bit_layout, "pack_moved", {
        BITS: sub("def pack(", "def pack_rows("),
        ROUNDS: add("def pack(cells): return cells"),
    }),
    plant(one_stream_rewind, "state_set_in_rounds", {ROUNDS: add(
        "def rewind(rng, s): rng.bit_generator.state = s"
    )}),
    plant(one_stream_rewind, "advance_aliased_in_formation", {
        "src/repro/sim/array_engine/formation.py": add("""
            def skip(rng, n):
                step = rng.bit_generator.advance
                step(n)
        """),
    }),
    plant(one_stream_rewind, "advance_imported_as", {ROUNDS: add("""
        from numpy.random import PCG64

        jump = PCG64.advance

        def skip(generator, n):
            jump(generator, n)
    """)}),
]

#: Code that looks like a violation to a looser check but keeps the
#: contract: the ``ast`` forms must not fire on it.
NEAR_MISSES = [
    plant(one_process_pool, "thread_pool", {MC: add("""
        from concurrent.futures import ThreadPoolExecutor

        def fan_out():
            return ThreadPoolExecutor(2)
    """)}),
    plant(every_module_has_a_caller, "relative_import", {
        ORPHAN: add("X = 1"),
        "src/repro/util/__init__.py": add("from . import orphan"),
    }),
    plant(one_trace_sink, "record_on_a_class_that_is_no_sink", {TEST: add("""
        class Journal:
            def record(self, **fields):
                pass
    """)}),
    plant(one_receive_path, "a_ledger_debit_named_on_receive", {
        "src/repro/obs/probe.py": add("""
            class Ledger:
                def on_receive(self, node_id, now):
                    pass

            def valid(payload):
                return isinstance(payload, dict)
        """),
    }),
    plant(one_trace_line_codec, "sort_keys_false", {
        HTTP: add("import json\ndef body(x): return json.dumps(x, sort_keys=False)"),
    }),
    plant(one_verdict_reader, "an_emitter_and_other_kinds", {SERVICE: add("""
        def announce(self, target, tracer):
            self._trace(ev.DETECTION, target=int(target))
            return tracer.count("radio.tx"), tracer.iter_kind(ev.TAKEOVER)
    """)}),
    plant(one_verdict_reader, "a_test_reads_the_records", {TEST: add(
        "def targets(t): return [r.detail['target'] for r in t.iter_kind(ev.DETECTION)]"
    )}),
    plant(one_pair_bit_layout, "a_test_packs_its_reference", {TEST: add(
        'def rows(cells): return np.packbits(cells, axis=-1, bitorder="little")'
    )}),
    plant(one_pair_bit_layout, "packbits_outside_the_array_engine", {MC: add(
        "def words(flags): return np.packbits(flags)"
    )}),
    plant(one_stream_rewind, "a_test_reads_the_state", {
        "tests/test_medium_vectorized.py": add(
            "def position(rng): return rng.bit_generator.state"
        ),
    }),
    plant(one_stream_rewind, "a_clock_advanced_to", {MC: add(
        "def tick(clock): return clock.advance_to(1.0), clock._advance(2)"
    )}),
]


@pytest.fixture(scope="module")
def tree() -> Tree:
    return Tree.read(ROOT)


@pytest.mark.parametrize("check", CONTRACTS, ids=lambda check: check.__name__)
def test_contract_holds(tree, check):
    assert check(tree) == []


@pytest.mark.parametrize("check, edits", PLANTINGS)
def test_planted_violation_fires(tree, check, edits):
    assert check(tree.planted(edits))


@pytest.mark.parametrize("check, edits", NEAR_MISSES)
def test_near_miss_keeps_the_contract(tree, check, edits):
    assert check(tree.planted(edits)) == []


def test_every_contract_is_planted_and_holds(tree):
    planted = {param.values[0] for param in PLANTINGS}
    assert [check.__name__ for check in CONTRACTS if check not in planted] == []
    assert [check.__name__ for check in CONTRACTS if check(tree)] == []
