"""Per-module symbol extraction for the project analysis engine.

:func:`build_module` turns one parsed file into a :class:`ModuleInfo`:
imports, classes (with inferred attribute types, mutable containers and
lock attributes), and functions annotated with every shared-state
access, call site and thread-spawn site — each tagged with the lexical
lockset held at that point.

The extraction is deliberately lexical: a ``with <expr>:`` item whose
unparsed text mentions ``lock``/``mutex`` counts as holding that lock
for the block, matching the convention the per-file rules (RPR007)
already enforce.  Lock names are canonicalised per class or module so
the same lock observed from different call paths compares equal.
"""

from __future__ import annotations

import ast

from ..registry import FileContext
from .model import (
    ATTR,
    GLOBAL,
    READ,
    WRITE,
    Access,
    Callee,
    CallSite,
    ClassInfo,
    FunctionInfo,
    Location,
    ModuleInfo,
    SpawnSite,
)
from .units import expr_unit, terminal_name, unit_of

__all__ = ["CONSTRUCTOR_NAMES", "MUTABLE_CTORS", "MUTATORS", "build_module"]

#: Constructor calls that produce mutable containers.
MUTABLE_CTORS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}

#: Method names that mutate their receiver in place.
MUTATORS = {
    "append",
    "appendleft",
    "add",
    "update",
    "insert",
    "extend",
    "remove",
    "discard",
    "pop",
    "popitem",
    "clear",
    "setdefault",
    "move_to_end",
}

#: Methods that run before the object is published to other threads.
CONSTRUCTOR_NAMES = {"__init__", "__new__", "__post_init__"}

_LOCKISH = ("lock", "mutex")


def _is_mutable_literal(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in MUTABLE_CTORS
    return False


def _looks_lockish(value: ast.expr) -> bool:
    try:
        text = ast.unparse(value).lower()
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return False
    return any(word in text for word in _LOCKISH)


def _annotation_class(node: ast.expr | None) -> str | None:
    """Bare class name out of a parameter annotation, if recognisable."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        return text if text.isidentifier() else None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # ``X | None`` / ``None | X``
        for side in (node.left, node.right):
            got = _annotation_class(side)
            if got is not None and got != "None":
                return got
        return None
    if isinstance(node, ast.Subscript):
        # ``Optional[X]``
        base = node.value
        if isinstance(base, ast.Name) and base.id == "Optional":
            return _annotation_class(node.slice)
    return None


def _ctor_class(value: ast.expr) -> str | None:
    """Bare class name when ``value`` is (or branches to) ``ClassName(...)``."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        name = value.func.id
        if name[:1].isupper() and name not in MUTABLE_CTORS:
            return name
    if isinstance(value, ast.IfExp):
        return _ctor_class(value.body) or _ctor_class(value.orelse)
    return None


def _collect_imports(tree: ast.Module, module: str, is_package: bool) -> dict[str, str]:
    imports: dict[str, str] = {}
    parts = module.split(".") if module else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                imports[bound] = alias.name if alias.asname else alias.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                anchor = parts if is_package else parts[:-1]
                cut = node.level - 1
                kept = anchor[: len(anchor) - cut] if cut else anchor
                base = ".".join(kept + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{base}.{alias.name}" if base else alias.name
    return imports


def _module_mutables(tree: ast.Module) -> set[str]:
    found: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is not None and _is_mutable_literal(value):
            for target in targets:
                if isinstance(target, ast.Name):
                    found.add(target.id)
    return found


class _Scope:
    """Resolution context shared by one function's scanner."""

    def __init__(self, mod: ModuleInfo, cls: ClassInfo | None, fn: ast.AST):
        self.mod = mod
        self.cls = cls
        self.locals: set[str] = set()
        self.globals_declared: set[str] = set()
        self.var_types: dict[str, str] = {}
        self._collect(fn)

    def _collect(self, fn: ast.AST) -> None:
        args = getattr(fn, "args", None)
        params = []
        if args is not None:
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if args.vararg:
                params.append(args.vararg)
            if args.kwarg:
                params.append(args.kwarg)
        for p in params:
            self.locals.add(p.arg)
            cls_name = _annotation_class(p.annotation)
            dotted = self.resolve_class_name(cls_name) if cls_name else None
            if dotted:
                self.var_types[p.arg] = dotted
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                self.globals_declared.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.locals.add(target.id)
                        cls_name = _ctor_class(node.value)
                        dotted = self.resolve_class_name(cls_name) if cls_name else None
                        if dotted:
                            self.var_types.setdefault(target.id, dotted)
                        elif (
                            isinstance(node.value, ast.Attribute)
                            and isinstance(node.value.value, ast.Name)
                            and node.value.value.id == "self"
                            and self.cls is not None
                        ):
                            typed = self.cls.attr_types.get(node.value.attr)
                            if typed:
                                self.var_types.setdefault(target.id, typed)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for name in ast.walk(node.target):
                    if isinstance(name, ast.Name):
                        self.locals.add(name.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        for name in ast.walk(item.optional_vars):
                            if isinstance(name, ast.Name):
                                self.locals.add(name.id)
        self.locals -= self.globals_declared

    def resolve_class_name(self, name: str | None) -> str | None:
        """Dotted class name for a bare identifier, via local defs/imports."""
        if not name:
            return None
        if name in self.mod.classes:
            return f"{self.mod.module}.{name}"
        dotted = self.mod.imports.get(name)
        return dotted if dotted and "." in dotted else None

    def receiver_type(self, node: ast.expr) -> str | None:
        """Dotted class of a receiver expression, when inferrable."""
        if isinstance(node, ast.Name):
            if node.id == "self" and self.cls is not None:
                return self.cls.qualname
            return self.var_types.get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.cls is not None
        ):
            return self.cls.attr_types.get(node.attr)
        return None

    def lock_name(self, expr: ast.expr) -> str | None:
        """Canonical name when ``expr`` looks like a lock, else None."""
        try:
            text = ast.unparse(expr)
        except Exception:  # pragma: no cover
            return None
        if not any(word in text.lower() for word in _LOCKISH):
            return None
        if isinstance(expr, ast.Attribute):
            owner = self.receiver_type(expr.value)
            if owner:
                return f"{owner}.{expr.attr}"
        return f"{self.mod.module}:{text}"

    def location_of(self, node: ast.expr) -> Location | None:
        """Shared-state cell a receiver/target expression addresses."""
        if isinstance(node, ast.Name):
            if node.id in self.mod.global_mutables and node.id not in self.locals:
                return Location(GLOBAL, self.mod.module, node.id)
            return None
        if isinstance(node, ast.Attribute):
            owner = self.receiver_type(node.value)
            if owner is None:
                return None
            if self.cls is not None and owner == self.cls.qualname:
                if node.attr in self.cls.lock_attrs:
                    return None
            if unit_of(node.attr) is None and any(w in node.attr.lower() for w in _LOCKISH):
                return None
            return Location(ATTR, owner, node.attr)
        return None


def _callee_of(func: ast.expr, scope: _Scope) -> Callee:
    if isinstance(func, ast.Name):
        return Callee("name", func.id)
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name) and value.id == "self":
            return Callee("self", func.attr)
        typed = scope.receiver_type(value)
        if typed is not None:
            return Callee("typed", func.attr, typed)
        if isinstance(value, ast.Name) and value.id in scope.mod.imports:
            return Callee("module", func.attr, scope.mod.imports[value.id])
        try:
            text = ast.unparse(value)
        except Exception:  # pragma: no cover
            text = "<expr>"
        return Callee("opaque", func.attr, text)
    return Callee("opaque", "<call>", None)


class _FunctionScanner:
    """One pass over a function body, tracking the lexical lockset."""

    def __init__(self, info: FunctionInfo, scope: _Scope, path: str):
        self.info = info
        self.scope = scope
        self.path = path
        self.returns: list[ast.Return] = []

    # -- statement walk -------------------------------------------------

    def scan(self, body: list[ast.stmt], lockset: frozenset[str], in_loop: bool) -> None:
        for stmt in body:
            self._stmt(stmt, lockset, in_loop)

    def _stmt(self, node: ast.stmt, lockset: frozenset[str], in_loop: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            child = _build_function(
                node,
                self.scope.mod,
                self.scope.cls,
                self.path,
                qualname=f"{self.info.qualname}.{node.name}",
            )
            self.info.children[node.name] = child
            return
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set()
            for item in node.items:
                self._expr(item.context_expr, lockset, in_loop)
                name = self.scope.lock_name(item.context_expr)
                if name is not None:
                    acquired.add(name)
            self.scan(node.body, lockset | acquired, in_loop)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._expr(node.iter, lockset, in_loop)
            self._target_write(node.target, lockset, in_loop)
            self.scan(node.body, lockset, True)
            self.scan(node.orelse, lockset, in_loop)
            return
        if isinstance(node, ast.While):
            self._expr(node.test, lockset, in_loop)
            self.scan(node.body, lockset, True)
            self.scan(node.orelse, lockset, in_loop)
            return
        if isinstance(node, ast.If):
            self._expr(node.test, lockset, in_loop)
            self.scan(node.body, lockset, in_loop)
            self.scan(node.orelse, lockset, in_loop)
            return
        if isinstance(node, ast.Try):
            self.scan(node.body, lockset, in_loop)
            for handler in node.handlers:
                self.scan(handler.body, lockset, in_loop)
            self.scan(node.orelse, lockset, in_loop)
            self.scan(node.finalbody, lockset, in_loop)
            return
        if isinstance(node, ast.Return):
            self.returns.append(node)
            if node.value is not None:
                self._expr(node.value, lockset, in_loop)
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound_name = None
            if isinstance(node, ast.Assign) and len(targets) == 1:
                bound_name = terminal_name(targets[0])
            if isinstance(value, ast.Call):
                self._call(value, lockset, in_loop, bound_name=bound_name)
            elif value is not None:
                self._expr(value, lockset, in_loop)
            for target in targets:
                self._target_write(target, lockset, in_loop)
                if isinstance(node, ast.AugAssign):
                    # augmented assignment also reads the target
                    self._expr_read(target, lockset, in_loop)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._target_write(target, lockset, in_loop)
            return
        if isinstance(node, ast.Expr):
            self._expr(node.value, lockset, in_loop)
            return
        # Anything else: walk child expressions / bodies generically.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, lockset, in_loop)
            elif isinstance(child, ast.stmt):
                self._stmt(child, lockset, in_loop)

    # -- writes ---------------------------------------------------------

    def _target_write(self, target: ast.expr, lockset: frozenset[str], in_loop: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._target_write(elt, lockset, in_loop)
            return
        base = target
        if isinstance(target, ast.Subscript):
            base = target.value
            self._expr(target.slice, lockset, in_loop)
        loc = self.scope.location_of(base)
        if loc is None and isinstance(base, ast.Attribute):
            # ``self.x = ...`` rebinding counts even without prior typing.
            owner = self.scope.receiver_type(base.value)
            if owner is not None:
                loc = Location(ATTR, owner, base.attr)
        if loc is not None:
            self._record(loc, WRITE, target, lockset)
        elif isinstance(base, ast.Attribute):
            self._expr(base.value, lockset, in_loop)

    # -- expressions ----------------------------------------------------

    def _expr(self, node: ast.expr, lockset: frozenset[str], in_loop: bool) -> None:
        if isinstance(node, ast.Call):
            self._call(node, lockset, in_loop)
            return
        if isinstance(node, (ast.Lambda,)):
            return
        loc = self.scope.location_of(node)
        if loc is not None and isinstance(getattr(node, "ctx", ast.Load()), ast.Load):
            self._record(loc, READ, node, lockset)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, lockset, in_loop)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter, lockset, True)
                for cond in child.ifs:
                    self._expr(cond, lockset, True)

    def _expr_read(self, node: ast.expr, lockset: frozenset[str], in_loop: bool) -> None:
        base = node.value if isinstance(node, ast.Subscript) else node
        loc = self.scope.location_of(base)
        if loc is not None:
            self._record(loc, READ, node, lockset)

    # -- calls ----------------------------------------------------------

    def _call(
        self,
        node: ast.Call,
        lockset: frozenset[str],
        in_loop: bool,
        bound_name: str | None = None,
    ) -> None:
        callee = _callee_of(node.func, self.scope)

        # In-place mutators write through their receiver — but only when
        # the receiver is a container.  A receiver with an inferred
        # *class* type (``self.wal.append(...)``) is a method call; the
        # real writes are recorded inside the resolved method.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and self.scope.receiver_type(node.func.value) is None
        ):
            loc = self.scope.location_of(node.func.value)
            if loc is not None:
                self._record(loc, WRITE, node, lockset)

        self._spawn(node, callee, in_loop)

        param_units = {p: unit_of(p) for p in self.info.params}
        param_units = {k: v for k, v in param_units.items() if v}
        arg_units = tuple(expr_unit(a, param_units) for a in node.args)
        kwarg_units = tuple(
            (kw.arg, expr_unit(kw.value, param_units))
            for kw in node.keywords
            if kw.arg is not None
        )
        self.info.calls.append(
            CallSite(
                callee=callee,
                lockset=lockset,
                path=self.path,
                line=node.lineno,
                col=node.col_offset,
                arg_units=arg_units,
                kwarg_units=kwarg_units,
                bound_unit=unit_of(bound_name),
                bound_name=bound_name,
            )
        )

        # Walk the receiver: records the read of the cell a method call
        # goes through, and catches chained calls like
        # ``threading.Thread(...).start()`` whose inner call spawns.
        if isinstance(node.func, ast.Attribute):
            self._expr(node.func.value, lockset, in_loop)
        elif not isinstance(node.func, ast.Name):
            self._expr(node.func, lockset, in_loop)
        for arg in node.args:
            self._expr(arg, lockset, in_loop)
        for kw in node.keywords:
            self._expr(kw.value, lockset, in_loop)

    def _spawn(self, node: ast.Call, callee: Callee, in_loop: bool) -> None:
        kind: str | None = None
        target_expr: ast.expr | None = None
        is_thread = (callee.kind == "module" and callee.receiver == "threading" and callee.name == "Thread") or (
            callee.kind == "name"
            and callee.name == "Thread"
            and self.scope.mod.imports.get("Thread") == "threading.Thread"
        )
        if is_thread:
            kind = "thread"
            for kw in node.keywords:
                if kw.arg == "target":
                    target_expr = kw.value
        elif callee.name == "submit" and callee.kind in {"typed", "opaque", "module", "self"}:
            if node.args:
                kind = "pool"
                target_expr = node.args[0]
        if kind is None:
            return
        target: Callee | None = None
        if isinstance(target_expr, ast.Name):
            target = Callee("name", target_expr.id)
        elif isinstance(target_expr, ast.Attribute):
            target = _callee_of_attr(target_expr, self.scope)
        self.info.spawns.append(
            SpawnSite(kind=kind, target=target, path=self.path, line=node.lineno, in_loop=in_loop)
        )

    # -- bookkeeping ----------------------------------------------------

    def _record(self, loc: Location, op: str, node: ast.AST, lockset: frozenset[str]) -> None:
        self.info.accesses.append(
            Access(
                location=loc,
                op=op,
                lockset=lockset,
                path=self.path,
                line=getattr(node, "lineno", self.info.line),
                col=getattr(node, "col_offset", 0),
                in_constructor=self.info.is_constructor,
            )
        )

    def finish(self) -> None:
        """Infer the return unit once the walk is complete."""
        param_units = {p: u for p in self.info.params if (u := unit_of(p))}
        valued = [r.value for r in self.returns if r.value is not None]
        valued = [v for v in valued if not (isinstance(v, ast.Constant) and v.value is None)]
        if not valued:
            return
        units = [expr_unit(v, param_units) for v in valued]
        if all(u is not None for u in units) and len(set(units)) == 1:
            self.info.return_unit = units[0]
            return
        callees = []
        for v in valued:
            if isinstance(v, ast.Call):
                callees.append(_callee_of(v.func, self.scope))
        if len(callees) == len(valued) and len({(c.kind, c.name, c.receiver) for c in callees}) == 1:
            self.info.return_call = callees[0]


def _callee_of_attr(node: ast.Attribute, scope: _Scope) -> Callee:
    """Callee descriptor for a bare attribute reference (spawn targets)."""
    value = node.value
    if isinstance(value, ast.Name) and value.id == "self":
        return Callee("self", node.attr)
    typed = scope.receiver_type(value)
    if typed is not None:
        return Callee("typed", node.attr, typed)
    if isinstance(value, ast.Name) and value.id in scope.mod.imports:
        return Callee("module", node.attr, scope.mod.imports[value.id])
    try:
        text = ast.unparse(value)
    except Exception:  # pragma: no cover
        text = "<expr>"
    return Callee("opaque", node.attr, text)


def _build_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    mod: ModuleInfo,
    cls: ClassInfo | None,
    path: str,
    qualname: str | None = None,
) -> FunctionInfo:
    if qualname is None:
        if cls is not None:
            qualname = f"{mod.module}:{cls.name}.{node.name}"
        else:
            qualname = f"{mod.module}:{node.name}"
    args = node.args
    params = tuple(
        a.arg
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
    )
    info = FunctionInfo(
        qualname=qualname,
        module=mod.module,
        cls=cls.qualname if cls is not None else None,
        name=node.name,
        path=path,
        line=node.lineno,
        params=params,
        is_constructor=cls is not None and node.name in CONSTRUCTOR_NAMES,
    )
    scope = _Scope(mod, cls, node)
    scanner = _FunctionScanner(info, scope, path)
    scanner.scan(node.body, frozenset(), False)
    scanner.finish()
    return info


def _scan_class_attrs(node: ast.ClassDef, cls: ClassInfo, mod: ModuleInfo) -> None:
    """First pass: what attributes exist, which are mutable, which are locks."""
    for stmt in node.body:
        for inner in ast.walk(stmt):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(inner, ast.Assign) and len(inner.targets) == 1:
                target, value = inner.targets[0], inner.value
            elif isinstance(inner, ast.AnnAssign):
                target, value = inner.target, inner.value
            if (
                target is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attr = target.attr
                cls.attr_universe.add(attr)
                if value is None:
                    continue
                if _is_mutable_literal(value):
                    cls.mutable_attrs.add(attr)
                elif _looks_lockish(value) and any(
                    w in attr.lower() for w in _LOCKISH
                ):
                    cls.lock_attrs.add(attr)


def _type_class_attrs(node: ast.ClassDef, cls: ClassInfo, mod: ModuleInfo) -> None:
    """Second pass: infer attribute classes from ctors and annotations."""
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        scope = _Scope(mod, cls, stmt)
        for inner in ast.walk(stmt):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(inner, ast.Assign) and len(inner.targets) == 1:
                target, value = inner.targets[0], inner.value
            elif isinstance(inner, ast.AnnAssign):
                target, value = inner.target, inner.value
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            dotted: str | None = None
            if isinstance(inner, ast.AnnAssign):
                cls_name = _annotation_class(inner.annotation)
                dotted = scope.resolve_class_name(cls_name)
            if dotted is None and value is not None:
                cls_name = _ctor_class(value)
                dotted = scope.resolve_class_name(cls_name)
                if dotted is None and isinstance(value, ast.Name):
                    dotted = scope.var_types.get(value.id)
                if dotted is None and isinstance(value, ast.IfExp):
                    for side in (value.body, value.orelse):
                        if isinstance(side, ast.Name) and side.id in scope.var_types:
                            dotted = scope.var_types[side.id]
                            break
            if dotted:
                cls.attr_types.setdefault(attr, dotted)


def build_module(ctx: FileContext) -> ModuleInfo:
    """Extract the full symbol table for one parsed file."""
    mod = ModuleInfo(module=ctx.module, path=ctx.relpath)
    mod.imports = _collect_imports(ctx.tree, ctx.module, ctx.is_package)
    mod.global_mutables = _module_mutables(ctx.tree)

    class_nodes: list[tuple[ast.ClassDef, ClassInfo]] = []
    for node in ctx.tree.body:
        if isinstance(node, ast.ClassDef):
            cls = ClassInfo(
                qualname=f"{ctx.module}.{node.name}",
                module=ctx.module,
                name=node.name,
                path=ctx.relpath,
                line=node.lineno,
                bases=tuple(
                    b.id for b in node.bases if isinstance(b, ast.Name)
                ),
            )
            _scan_class_attrs(node, cls, mod)
            mod.classes[node.name] = cls
            class_nodes.append((node, cls))

    # Attribute typing needs the class table (for local class names), so
    # it runs after every class shell exists.
    for node, cls in class_nodes:
        _type_class_attrs(node, cls, mod)

    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _build_function(node, mod, None, ctx.relpath)
            mod.functions[node.name] = info
    for node, cls in class_nodes:
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods[stmt.name] = _build_function(stmt, mod, cls, ctx.relpath)
    return mod
