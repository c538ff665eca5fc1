"""The rule pack: this codebase's determinism & contract invariants as AST checks.

Every rule is a small class with an id, a one-line title, and an
``explain`` block (rendered by ``repro lint --explain``) showing a bad
and a good example.  Rules receive a :class:`LintContext` — the parsed
tree and the file's import alias map — and yield
:class:`~repro.analysis.lint.findings.Finding` objects.  Every rule
applies to every file; there are no path scopes and no suppressions.

The pack is versioned (:data:`RULE_PACK_VERSION`): bump it when a rule's
meaning changes, so JSON reports stay interpretable.

Static analysis is necessarily heuristic — DET003/DET004 track set-typed
values through *single-assignment local names only*.  False negatives
are the golden suite's job; these rules exist to catch the regressions
the suite's finite configurations would miss.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.analysis.lint.findings import Finding

RULE_PACK_VERSION = 2

SYNTAX_RULE_ID = "SYN001"


class ImportMap:
    """``alias → dotted path`` for every import binding in a module."""

    def __init__(self, tree: ast.AST):
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        # `import numpy.random` binds the root name only.
                        root = alias.name.split(".")[0]
                        self.aliases[root] = root
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{module}.{alias.name}"

    def qualified(self, node: ast.AST) -> Optional[str]:
        """Resolve ``np.random.seed`` → ``"numpy.random.seed"``.

        Returns ``None`` when the dotted chain does not start at an
        imported name — locals shadowing module names never resolve.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        return ".".join([base, *reversed(parts)])


class LintContext:
    """Everything one file's rules get to see."""

    def __init__(self, path: str, tree: ast.Module):
        self.path = path.replace("\\", "/")
        self.tree = tree
        self.imports = ImportMap(tree)

    def qualified(self, node: ast.AST) -> Optional[str]:
        return self.imports.qualified(node)


class Rule:
    """Base class: subclasses set the metadata and implement ``check``."""

    id: str = ""
    title: str = ""
    explain: str = ""

    def check(self, context: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, context: LintContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


# --------------------------------------------------------------------------
# Shared helpers: set-typed expression inference for DET003/DET004.

_SET_RETURNING_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def _collect_set_names(scope_body: Iterable[ast.stmt]) -> frozenset[str]:
    """Local names whose *every* assignment in the scope is set-typed.

    Single forward pass, no dataflow: a name assigned once from
    ``set(...)`` counts; a name ever reassigned from a non-set expression
    (``s = sorted(s)``) drops out.  Nested function bodies are separate
    scopes and are skipped here.
    """
    assigned: dict[str, list[bool]] = {}

    def visit(statements: Iterable[ast.stmt]) -> None:
        for statement in statements:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                continue
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(
                            _is_set_expr(statement.value, frozenset())
                        )
            elif isinstance(statement, ast.AnnAssign) and statement.value:
                if isinstance(statement.target, ast.Name):
                    assigned.setdefault(statement.target.id, []).append(
                        _is_set_expr(statement.value, frozenset())
                    )
            for child_body in _nested_bodies(statement):
                visit(child_body)

    visit(scope_body)
    return frozenset(
        name for name, flags in assigned.items() if flags and all(flags)
    )


def _nested_bodies(statement: ast.stmt) -> Iterator[list[ast.stmt]]:
    for attr in ("body", "orelse", "finalbody"):
        body = getattr(statement, attr, None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            yield body
    for handler in getattr(statement, "handlers", []):
        yield handler.body


def _is_set_expr(node: ast.expr, set_names: frozenset[str]) -> bool:
    """Is this expression syntactically set-valued?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (isinstance(func, ast.Attribute)
                and func.attr in _SET_RETURNING_METHODS
                and _is_set_expr(func.value, set_names)):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    return False


def _iterates_set(node: ast.expr, set_names: frozenset[str]) -> bool:
    """Set-valued itself, or a comprehension whose source is set-valued."""
    if _is_set_expr(node, set_names):
        return True
    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return any(
            _is_set_expr(gen.iter, set_names) for gen in node.generators
        )
    return False


def _scopes(tree: ast.Module) -> Iterator[list[ast.stmt]]:
    """The module body plus every function body (each its own scope)."""
    yield tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body


def _walk_scope(statements: Iterable[ast.stmt]) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function/class bodies."""
    for statement in statements:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
            continue
        yield statement
        for child in ast.walk(statement):
            if child is not statement:
                yield child


# --------------------------------------------------------------------------
# DET001 — unseeded randomness.

_NUMPY_LEGACY_FNS = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "exponential", "poisson", "binomial", "beta", "gamma",
    "lognormal", "get_state", "set_state", "bytes",
})


class UnseededRandomnessRule(Rule):
    id = "DET001"
    title = "unseeded randomness"
    explain = """\
Every stochastic draw must flow from an explicit seed, threaded through
`numpy.random.Generator` objects (see `repro.runtime.child_rng`).  The
stdlib `random` module and NumPy's legacy global state (`np.random.seed`,
`np.random.uniform`, ...) are process-wide mutable state: any import-order
change silently reorders draws and breaks byte-identical replay.  An
argumentless `default_rng()` seeds from the OS and is unreproducible by
construction.

Bad:
    import random
    jitter = random.uniform(0.0, 1.0)        # global, unseeded
    rng = np.random.default_rng()            # OS-entropy seed

Good:
    rng = np.random.default_rng(seed)        # explicit seed
    jitter = rng.uniform(0.0, 1.0)

No module is exempt: the runtime's per-worker streams are seeded too
(`default_rng(SeedSequence((master_seed, index, domain)))`).
"""

    def check(self, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = context.qualified(node.func)
            if qualified is None:
                continue
            if qualified.startswith("random."):
                tail = qualified.split(".", 1)[1]
                if tail == "Random" and node.args:
                    continue  # random.Random(seed): locally seeded
                yield self.finding(
                    context, node,
                    f"call to stdlib `{qualified}` uses process-global "
                    "random state; thread a seeded np.random.Generator "
                    "instead",
                )
            elif qualified.startswith("numpy.random."):
                tail = qualified.split(".", 2)[2]
                if tail in _NUMPY_LEGACY_FNS:
                    yield self.finding(
                        context, node,
                        f"legacy global-state call `np.random.{tail}`; use a "
                        "seeded np.random.Generator",
                    )
                elif tail == "RandomState" and not node.args and not node.keywords:
                    yield self.finding(
                        context, node,
                        "`np.random.RandomState()` without a seed draws from "
                        "OS entropy",
                    )
                elif tail == "default_rng" and not node.args and not node.keywords:
                    yield self.finding(
                        context, node,
                        "`default_rng()` without a seed draws from OS entropy; "
                        "pass an explicit seed or SeedSequence",
                    )


# --------------------------------------------------------------------------
# DET002 — wall-clock / environment reads in deterministic scope.

_WALL_CLOCK_CALLS = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.localtime": "wall clock",
    "time.gmtime": "wall clock",
    "time.ctime": "wall clock",
    "time.strftime": "wall clock",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.date.today": "wall clock",
    "os.getenv": "environment",
    "os.getenvb": "environment",
}


class WallClockRule(Rule):
    id = "DET002"
    title = "wall-clock or environment read inside a deterministic layer"
    explain = """\
`sim/`, `ml/`, `phy/`, and `core/` produce byte-identical outputs for a
given seed — that is the repo's §8 replay contract.  Reading the wall
clock (`time.time`, `datetime.now`) or the process environment
(`os.environ`, `os.getenv`) injects host state into those outputs.
Timing *measurement* belongs in `repro.obs` spans (monotonic
`time.perf_counter`, which this rule deliberately allows); configuration
belongs in explicit parameters.

Bad (inside src/repro/sim/...):
    started = time.time()
    if os.environ.get("FAST"):
        ...

Good:
    with metrics.span("sim.flow"):   # perf_counter, obs layer
        ...
    def run(..., fast: bool = False):

The rule applies to every file `repro lint` is given.
"""

    def check(self, context: LintContext) -> Iterator[Finding]:
        flagged: set[tuple[int, int]] = set()

        def mark(node: ast.AST) -> bool:
            key = (node.lineno, node.col_offset)
            if key in flagged:
                return False
            flagged.add(key)
            return True

        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute):
                qualified = context.qualified(node)
                if qualified == "os.environ" and mark(node):
                    yield self.finding(
                        context, node,
                        "`os.environ` read in a deterministic layer; pass "
                        "configuration as explicit parameters",
                    )
            elif isinstance(node, ast.Call):
                qualified = context.qualified(node.func)
                kind = _WALL_CLOCK_CALLS.get(qualified or "")
                if kind is not None and mark(node):
                    yield self.finding(
                        context, node,
                        f"`{qualified}` is a {kind} read in a deterministic "
                        "layer; use obs spans (perf_counter) for timing and "
                        "parameters for configuration",
                    )


# --------------------------------------------------------------------------
# DET003 — set iteration feeding ordered sinks.

_ORDERED_SINK_BUILTINS = frozenset({"list", "tuple", "enumerate"})
_SERIALIZE_SINKS = frozenset({"json.dumps", "json.dump"})
_ACCUMULATING_ATTRS = frozenset({"append", "extend", "write"})


class SetOrderingRule(Rule):
    id = "DET003"
    title = "set iteration order leaks into an ordered result"
    explain = """\
Python set iteration order depends on insertion history and string hash
randomization (PYTHONHASHSEED): identical inputs can serialize, trace,
or fingerprint differently across processes.  Any place a set's order
becomes observable — building a list, joining strings, JSON dumps, or a
loop that appends/accumulates — must sort first.  (Dicts are
insertion-ordered and are not flagged.)

Bad:
    labels = {e.kind for e in entries}
    report = ", ".join(labels)               # hash-order output
    rows = [fmt(x) for x in labels]          # hash-order list

Good:
    report = ", ".join(sorted(labels))
    rows = [fmt(x) for x in sorted(labels)]

The rule tracks set literals, `set()` calls, set methods, and local
names assigned only set-valued expressions; `sorted(...)` is the
sanctioned escape hatch (it returns a list, so nothing downstream is
flagged).
"""

    def check(self, context: LintContext) -> Iterator[Finding]:
        for scope in _scopes(context.tree):
            set_names = _collect_set_names(scope)
            for node in _walk_scope(scope):
                yield from self._check_node(context, node, set_names)

    def _check_node(self, context: LintContext, node: ast.AST,
                    set_names: frozenset[str]) -> Iterator[Finding]:
        if isinstance(node, ast.For) and _is_set_expr(node.iter, set_names):
            if self._body_accumulates(node.body):
                yield self.finding(
                    context, node,
                    "loop over a set accumulates into an ordered result; "
                    "iterate `sorted(...)` instead",
                )
        elif isinstance(node, ast.ListComp):
            if any(_is_set_expr(gen.iter, set_names)
                   for gen in node.generators):
                yield self.finding(
                    context, node,
                    "list built by iterating a set inherits hash order; "
                    "iterate `sorted(...)` instead",
                )
        elif isinstance(node, ast.Call):
            yield from self._check_call(context, node, set_names)

    def _check_call(self, context: LintContext, call: ast.Call,
                    set_names: frozenset[str]) -> Iterator[Finding]:
        if not call.args:
            return
        first = call.args[0]
        func = call.func
        sink: Optional[str] = None
        if isinstance(func, ast.Name) and func.id in _ORDERED_SINK_BUILTINS:
            sink = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            sink = "str.join"
        else:
            qualified = context.qualified(func)
            if qualified in _SERIALIZE_SINKS:
                sink = qualified
        if sink is not None and _iterates_set(first, set_names):
            yield self.finding(
                context, call,
                f"set passed to order-sensitive sink `{sink}`; wrap it in "
                "`sorted(...)` first",
            )

    @staticmethod
    def _body_accumulates(body: list[ast.stmt]) -> bool:
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, (ast.AugAssign, ast.Yield, ast.YieldFrom)):
                    return True
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _ACCUMULATING_ATTRS):
                    return True
        return False


# --------------------------------------------------------------------------
# DET004 — float reductions over unordered collections.

_REDUCER_BUILTINS = frozenset({"sum"})
_REDUCER_QUALIFIED = frozenset({
    "math.fsum",
    "statistics.mean", "statistics.fmean", "statistics.stdev",
    "statistics.variance",
    "numpy.sum", "numpy.mean", "numpy.prod", "numpy.cumsum", "numpy.average",
})


class UnorderedReductionRule(Rule):
    id = "DET004"
    title = "float reduction over an unordered collection"
    explain = """\
Float addition is not associative: `sum(values)` over a set (or a
generator draining a set) gives bit-different totals when hash order
changes, which is exactly how a fingerprinted evaluation diverges
between two hosts with different PYTHONHASHSEED.  Reductions must run
over a deterministically ordered sequence.

Bad:
    weights = {w for w in raw if w > 0}
    total = sum(weights)                       # hash-order accumulation
    mean = np.mean([f(x) for x in weights])    # DET003 flags the list too

Good:
    total = sum(sorted(weights))
    total = math.fsum(sorted(weights))         # order-robust *and* sorted

`max`/`min` are order-insensitive and are not flagged.
"""

    def check(self, context: LintContext) -> Iterator[Finding]:
        for scope in _scopes(context.tree):
            set_names = _collect_set_names(scope)
            for node in _walk_scope(scope):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                func = node.func
                name: Optional[str] = None
                if isinstance(func, ast.Name) and func.id in _REDUCER_BUILTINS:
                    name = func.id
                else:
                    qualified = context.qualified(func)
                    if qualified in _REDUCER_QUALIFIED:
                        name = qualified
                if name is None:
                    continue
                if _iterates_set(node.args[0], set_names):
                    yield self.finding(
                        context, node,
                        f"`{name}` reduces over a set: float accumulation "
                        "order is hash-dependent; reduce over `sorted(...)`",
                    )


# --------------------------------------------------------------------------
# ROB001 — swallowed broad exceptions.

_EMISSION_ATTRS = frozenset({
    "record", "inc", "observe", "set", "exception", "warning", "error",
    "critical", "log",
})
_BROAD_NAMES = frozenset({"Exception", "BaseException"})


class SwallowedExceptionRule(Rule):
    id = "ROB001"
    title = "broad except swallows the failure without evidence"
    explain = """\
`repro.faults` injects failures on purpose; a `except Exception:` (or
bare `except:`) that neither re-raises nor emits evidence would mask
them — a chaos run would "pass" while silently degrading.  A broad
handler is acceptable only at an isolation boundary (a crashing policy
must not kill the run) *and* only if it leaves a trail: re-raise, record
a trace event, or bump a metrics counter before degrading.

Bad:
    try:
        decision = policy.decide(observation)
    except Exception:
        decision = fallback()                  # invisible degradation

Good:
    except KeyError as error:                  # narrow it, or:
        ...
    except Exception as error:
        get_metrics().counter("sim.policy_decide_error").inc()
        decision = fallback()                  # counted degradation

The rule accepts any `raise`, or a call to `.record/.inc/.observe/.set`
or a logging method (`.warning/.error/.exception/...`) inside the
handler body.
"""

    def check(self, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._leaves_evidence(node.body):
                continue
            what = "bare `except:`" if node.type is None else (
                "broad `except Exception`"
            )
            yield self.finding(
                context, node,
                f"{what} neither re-raises nor emits trace/metrics evidence; "
                "narrow the exception type or record the degradation",
            )

    @staticmethod
    def _is_broad(annotation: Optional[ast.expr]) -> bool:
        if annotation is None:
            return True
        candidates: list[ast.expr] = (
            list(annotation.elts) if isinstance(annotation, ast.Tuple)
            else [annotation]
        )
        for candidate in candidates:
            if isinstance(candidate, ast.Name) and candidate.id in _BROAD_NAMES:
                return True
            if (isinstance(candidate, ast.Attribute)
                    and candidate.attr in _BROAD_NAMES):
                return True
        return False

    @staticmethod
    def _leaves_evidence(body: list[ast.stmt]) -> bool:
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Raise):
                    return True
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _EMISSION_ATTRS):
                    return True
        return False


# --------------------------------------------------------------------------
# OBS001 — untyped trace emission.

_EVENT_ARG_LITERALS = (
    ast.Dict, ast.List, ast.Tuple, ast.Set, ast.Constant, ast.JoinedStr,
    ast.DictComp, ast.ListComp, ast.SetComp,
)


class UntypedTraceEventRule(Rule):
    id = "OBS001"
    title = "trace emission bypasses the typed-event contract"
    explain = """\
Recorders accept exactly one typed event per `record()` call — a
dataclass from `repro.obs.events` whose `to_dict()` stamps the `type`
and schema-version fields.  Passing a raw dict, string, or tuple writes
schema-less lines that `repro inspect` and the trace readers cannot
rebuild (`event_from_dict` raises on them).

Bad:
    recorder.record({"type": "flow", "mcs": 9})   # schema-less payload
    recorder.record("ba-triggered", clock)        # wrong arity too

Good:
    recorder.record(FlowEvent(policy=..., ...))   # typed constructor
    recorder.record(event)                        # a typed event variable

The check is structural: literals and `dict()` payloads are flagged;
variables and constructor calls pass.
"""

    def check(self, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "record"):
                continue
            if len(node.args) != 1 or node.keywords:
                yield self.finding(
                    context, node,
                    "`.record(...)` takes exactly one typed event from "
                    "repro.obs.events",
                )
                continue
            argument = node.args[0]
            untyped = isinstance(argument, _EVENT_ARG_LITERALS) or (
                isinstance(argument, ast.Call)
                and isinstance(argument.func, ast.Name)
                and argument.func.id == "dict"
            )
            if untyped:
                yield self.finding(
                    context, node,
                    "`.record(...)` called with an untyped payload; construct "
                    "a typed event from repro.obs.events instead",
                )


# --------------------------------------------------------------------------
# API001 — mutable defaults.

_MUTABLE_FACTORY_NAMES = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "deque",
})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_FACTORY_NAMES
    return False


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


class MutableDefaultRule(Rule):
    id = "API001"
    title = "mutable default argument or dataclass field"
    explain = """\
A mutable default (`def f(x, acc=[])`, `history: list = []`) is created
once and shared across every call or instance: state leaks between
flows, which both corrupts results and makes them depend on call
history — a reproducibility bug wearing an API-design hat.  Dataclasses
reject plain `list` defaults at runtime, but `field(default=[...])` and
function defaults slip through.

Bad:
    def replay(entries, gaps=[]): ...
    @dataclass
    class Window:
        samples: list = field(default=[])

Good:
    def replay(entries, gaps=None):
        gaps = [] if gaps is None else gaps
    @dataclass
    class Window:
        samples: list = field(default_factory=list)
"""

    def check(self, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if _is_mutable_default(default):
                        name = getattr(node, "name", "<lambda>")
                        yield self.finding(
                            context, default,
                            f"mutable default argument in `{name}`; default "
                            "to None (or use a factory) instead",
                        )
            elif isinstance(node, ast.ClassDef) and _is_dataclass_decorated(node):
                yield from self._check_dataclass(context, node)

    def _check_dataclass(self, context: LintContext,
                         node: ast.ClassDef) -> Iterator[Finding]:
        for statement in node.body:
            if not isinstance(statement, ast.AnnAssign) or statement.value is None:
                continue
            value = statement.value
            flagged = _is_mutable_default(value)
            if (not flagged and isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "field"):
                flagged = any(
                    keyword.arg == "default"
                    and _is_mutable_default(keyword.value)
                    for keyword in value.keywords
                )
            if flagged:
                yield self.finding(
                    context, value,
                    f"mutable default on dataclass `{node.name}` field; use "
                    "field(default_factory=...)",
                )


# --------------------------------------------------------------------------
# SYN001 — emitted by the engine, registered so --explain covers it.


class SyntaxErrorRule(Rule):
    """Emitted by the engine when a file fails to parse."""

    id = SYNTAX_RULE_ID
    title = "file does not parse"
    explain = """\
A file that fails `ast.parse` cannot be checked at all, so it fails the
lint run outright.  Fix the syntax error.
"""

    def check(self, context: LintContext) -> Iterator[Finding]:
        return iter(())


RULES: tuple[Rule, ...] = (
    UnseededRandomnessRule(),
    WallClockRule(),
    SetOrderingRule(),
    UnorderedReductionRule(),
    SwallowedExceptionRule(),
    UntypedTraceEventRule(),
    MutableDefaultRule(),
    SyntaxErrorRule(),
)

REGISTRY: dict[str, Rule] = {rule.id: rule for rule in RULES}

AST_RULES: tuple[Rule, ...] = tuple(
    rule for rule in RULES if rule.id != SYNTAX_RULE_ID
)
