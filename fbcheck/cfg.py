"""Per-function control-flow graphs for flow-sensitive fbcheck rules.

The syntactic rules see one AST node at a time; the flow rules
(FB-TAMPER, FB-LOCKED) need to reason about *order*: was the CRC
compared before the bytes were decoded, is this field access dominated
by the lock acquisition?  This module builds a small statement-level CFG
per function that makes those questions dataflow and domination.

Graph shape
-----------

Each :class:`Block` holds at most one simple statement (or the header
expression of a compound statement), so "the path passes through this
call" is block containment, not intra-block position tracking.  Three
synthetic blocks exist per function: ``entry``, ``exit`` (normal returns
and fall-through) and ``raise_exit`` (an exception escaping the function).

Edge kinds:

- ``normal`` / ``true`` / ``false`` / ``back`` — ordinary control flow
  (branch edges are labelled, loop back-edges are ``back``);
- ``exc`` — a statement that can raise transferring to the innermost
  matching handler, or straight to ``raise_exit`` when nothing encloses
  it;
- ``escape`` — propagation *past* a narrow (non-catch-all) handler set:
  the exception might not match any declared handler.  An optimistic
  analysis (one that trusts declared handlers to cover the taxonomy
  their try-body raises) ignores these; a pessimistic one follows them;
- ``reraise`` — the exception-still-in-flight edge out of a ``finally``
  body: control reached the finally *because* something raised, so the
  propagation continues regardless of what the finally block itself does.

Deliberate simplifications, documented so rule authors know the model:

- ``return`` edges go straight to ``exit`` (finally-on-return is not
  routed; none of the shipped rules key on it);
- ``break``/``continue`` jump directly to their loop targets;
- a statement "can raise" when it contains a call, ``raise``, or
  ``assert`` — attribute/subscript errors on plain data are ignored;
- nested ``def``/``lambda`` bodies run at another time and are excluded
  from the enclosing function's graph.

``with`` regions are first-class: every block created inside a ``with``
body carries the unparsed text of the active context expressions
(:attr:`Block.withs`), and :attr:`CFG.with_enters` maps the header block
that acquires each context.  FB-LOCKED combines that region tagging with
:meth:`CFG.dominators` — the acquisition must dominate the access.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


class Block:
    """One CFG node: at most one statement plus labelled out-edges."""

    __slots__ = ("id", "stmts", "succs", "withs", "label")

    def __init__(self, id_: int, label: str = "") -> None:
        self.id = id_
        self.stmts: List[ast.AST] = []
        #: (target block id, edge kind) pairs.
        self.succs: List[Tuple[int, str]] = []
        #: Unparsed context expressions of every enclosing ``with``.
        self.withs: Tuple[str, ...] = ()
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = ", ".join(f"{t}:{k}" for t, k in self.succs)
        return f"Block({self.id}{' ' + self.label if self.label else ''} -> [{kinds}])"


class _ExcFrame:
    """One enclosing try: where a raise inside its body may transfer."""

    __slots__ = ("handlers", "catch_all", "finally_entry")

    def __init__(
        self,
        handlers: Sequence[int],
        catch_all: bool,
        finally_entry: Optional[int],
    ) -> None:
        self.handlers = list(handlers)
        self.catch_all = catch_all
        self.finally_entry = finally_entry


def _can_raise(stmt: ast.AST) -> bool:
    """True when the statement may raise under the documented model."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for node in ast.walk(stmt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            return True
    return False


def _is_catch_all(handlers: Sequence[ast.ExceptHandler]) -> bool:
    for handler in handlers:
        if handler.type is None:
            return True
        nodes = (
            handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        )
        for node in nodes:
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
            if name in ("Exception", "BaseException"):
                return True
    return False


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, func: FunctionNode) -> None:
        self.func = func
        self.blocks: List[Block] = []
        #: with-header block id -> unparsed context expressions it enters.
        self.with_enters: Dict[int, List[str]] = {}
        self._node_block: Dict[int, int] = {}
        self._frames: List[_ExcFrame] = []
        self._loops: List[Tuple[int, int]] = []  # (continue target, break target)
        self._withs: List[str] = []
        self._doms: Optional[Dict[int, set]] = None
        self.entry = self._new_block("entry").id
        self.exit = self._new_block("exit").id
        self.raise_exit = self._new_block("raise-exit").id
        last = self._build_body(func.body, self.entry)
        if last is not None:
            self._edge(last, self.exit, "normal")

    # -- construction --------------------------------------------------------

    def _new_block(self, label: str = "") -> Block:
        block = Block(len(self.blocks), label)
        block.withs = tuple(self._withs) if self._withs else ()
        self.blocks.append(block)
        return block

    def _edge(self, src: int, dst: int, kind: str) -> None:
        pair = (dst, kind)
        if pair not in self.blocks[src].succs:
            self.blocks[src].succs.append(pair)

    def _place(self, stmt: ast.AST, block: Block) -> None:
        block.stmts.append(stmt)
        for node in ast.walk(stmt):
            self._node_block.setdefault(id(node), block.id)

    def _raise_edges(self, src: int, kind: str = "exc") -> None:
        """Wire the may-raise edges for a block, innermost frame outward."""
        for frame in reversed(self._frames):
            for handler in frame.handlers:
                self._edge(src, handler, kind)
            if frame.catch_all:
                return
            if frame.finally_entry is not None:
                # Propagation continues out of the finally body via its
                # own ``reraise`` edges, not from here.
                self._edge(src, frame.finally_entry, kind)
                return
            if frame.handlers:
                kind = "escape"
        self._edge(src, self.raise_exit, kind)

    def _build_body(self, stmts: Sequence[ast.stmt], current: int) -> Optional[int]:
        """Build ``stmts`` starting at block ``current``.

        Returns the block that falls through to whatever follows, or
        ``None`` when every path diverted (return/raise/break/continue).
        """
        for stmt in stmts:
            if current is None:
                # Unreachable code after a diverting statement: park it in
                # a disconnected block so node->block lookups still work.
                current = self._new_block("unreachable").id
            current = self._build_stmt(stmt, current)
        return current

    def _build_stmt(self, stmt: ast.stmt, current: int) -> Optional[int]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            block = self._new_block("def")
            self._place(stmt, block)
            self._edge(current, block.id, "normal")
            return block.id
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, current)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._build_with(stmt, current)
        if isinstance(stmt, ast.Return):
            block = self._new_block("return")
            self._place(stmt, block)
            self._edge(current, block.id, "normal")
            if _can_raise(stmt):
                self._raise_edges(block.id)
            self._edge(block.id, self.exit, "normal")
            return None
        if isinstance(stmt, ast.Raise):
            block = self._new_block("raise")
            self._place(stmt, block)
            self._edge(current, block.id, "normal")
            self._raise_edges(block.id)
            return None
        if isinstance(stmt, ast.Break):
            block = self._new_block("break")
            self._place(stmt, block)
            self._edge(current, block.id, "normal")
            if self._loops:
                self._edge(block.id, self._loops[-1][1], "normal")
            return None
        if isinstance(stmt, ast.Continue):
            block = self._new_block("continue")
            self._place(stmt, block)
            self._edge(current, block.id, "normal")
            if self._loops:
                self._edge(block.id, self._loops[-1][0], "back")
            return None
        # Simple statement: its own block, plus may-raise edges.
        block = self._new_block()
        self._place(stmt, block)
        self._edge(current, block.id, "normal")
        if _can_raise(stmt):
            self._raise_edges(block.id)
        return block.id

    def _build_if(self, stmt: ast.If, current: int) -> Optional[int]:
        head = self._new_block("if")
        self._place(stmt.test, head)
        self._edge(current, head.id, "normal")
        if _can_raise(ast.Expr(stmt.test)):
            self._raise_edges(head.id)
        after = self._new_block("if-join")
        then_entry = self._new_block("then")
        self._edge(head.id, then_entry.id, "true")
        then_exit = self._build_body(stmt.body, then_entry.id)
        if then_exit is not None:
            self._edge(then_exit, after.id, "normal")
        if stmt.orelse:
            else_entry = self._new_block("else")
            self._edge(head.id, else_entry.id, "false")
            else_exit = self._build_body(stmt.orelse, else_entry.id)
            if else_exit is not None:
                self._edge(else_exit, after.id, "normal")
        else:
            self._edge(head.id, after.id, "false")
        if not after.succs and not any(
            after.id == dst for blk in self.blocks for dst, _ in blk.succs
        ):
            return None  # both arms diverted
        return after.id

    def _build_loop(
        self, stmt: Union[ast.While, ast.For, ast.AsyncFor], current: int
    ) -> int:
        head = self._new_block("loop")
        test = stmt.test if isinstance(stmt, ast.While) else stmt.iter
        self._place(test, head)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            # The target binding happens each iteration; keep it with the
            # header so dataflow sees target <- iter.
            self._place(stmt.target, head)
        self._edge(current, head.id, "normal")
        if _can_raise(ast.Expr(test)):
            self._raise_edges(head.id)
        after = self._new_block("loop-exit")
        body_entry = self._new_block("loop-body")
        self._edge(head.id, body_entry.id, "true")
        self._loops.append((head.id, after.id))
        body_exit = self._build_body(stmt.body, body_entry.id)
        self._loops.pop()
        if body_exit is not None:
            self._edge(body_exit, head.id, "back")
        if stmt.orelse:
            else_entry = self._new_block("loop-else")
            self._edge(head.id, else_entry.id, "false")
            else_exit = self._build_body(stmt.orelse, else_entry.id)
            if else_exit is not None:
                self._edge(else_exit, after.id, "normal")
        else:
            self._edge(head.id, after.id, "false")
        return after.id

    def _build_with(
        self, stmt: Union[ast.With, ast.AsyncWith], current: int
    ) -> Optional[int]:
        head = self._new_block("with")
        contexts: List[str] = []
        for item in stmt.items:
            self._place(item.context_expr, head)
            if item.optional_vars is not None:
                self._place(item.optional_vars, head)
            contexts.append(_expr_text(item.context_expr))
        self._edge(current, head.id, "normal")
        self._raise_edges(head.id)  # __enter__ can raise
        self.with_enters[head.id] = contexts
        self._withs.extend(contexts)
        try:
            body_exit = self._build_body(stmt.body, head.id)
        finally:
            del self._withs[len(self._withs) - len(contexts) :]
        if body_exit is None:
            return None
        exit_block = self._new_block("with-exit")
        self._edge(body_exit, exit_block.id, "normal")
        return exit_block.id

    def _build_try(self, stmt: ast.Try, current: int) -> Optional[int]:
        after = self._new_block("try-join")
        finally_entry: Optional[int] = None
        finally_exit: Optional[int] = None
        if stmt.finalbody:
            fin = self._new_block("finally")
            finally_entry = fin.id
            # Built against the *outer* frame stack: a raise inside the
            # finally body propagates past this try.
            finally_exit = self._build_body(stmt.finalbody, fin.id)
            if finally_exit is not None:
                self._edge(finally_exit, after.id, "normal")
                # Exception-in-flight: control reached the finally via an
                # exc edge and keeps propagating (through the outer frames)
                # after the body runs.
                self._raise_edges_for_reraise(finally_exit)
        handler_entries: List[int] = []
        for handler in stmt.handlers:
            entry = self._new_block("except")
            self._place(handler, entry)
            handler_entries.append(entry.id)
        frame = _ExcFrame(handler_entries, _is_catch_all(stmt.handlers), finally_entry)
        body_entry = self._new_block("try-body")
        self._edge(current, body_entry.id, "normal")
        self._frames.append(frame)
        body_exit = self._build_body(stmt.body, body_entry.id)
        self._frames.pop()
        # A handler body raising (incl. bare ``raise``) propagates outward
        # through this try's finally, not back into its own handlers.
        if finally_entry is not None:
            self._frames.append(_ExcFrame([], False, finally_entry))
        try:
            if body_exit is not None and stmt.orelse:
                else_exit = self._build_body(stmt.orelse, body_exit)
                body_exit = else_exit
            for handler, entry in zip(stmt.handlers, handler_entries):
                handler_exit = self._build_body(handler.body, entry)
                if handler_exit is not None:
                    self._edge(handler_exit, finally_entry if finally_entry is not None else after.id, "normal")
        finally:
            if finally_entry is not None:
                self._frames.pop()
        if body_exit is not None:
            self._edge(body_exit, finally_entry if finally_entry is not None else after.id, "normal")
        reachable = any(
            dst == after.id for blk in self.blocks for dst, _ in blk.succs
        )
        return after.id if reachable else None

    def _raise_edges_for_reraise(self, src: int) -> None:
        """The still-in-flight propagation out of a finally body."""
        for frame in reversed(self._frames):
            if frame.finally_entry is not None:
                self._edge(src, frame.finally_entry, "reraise")
                return
        self._edge(src, self.raise_exit, "reraise")

    # -- queries -------------------------------------------------------------

    def block_of(self, node: ast.AST) -> Optional[int]:
        """The block holding the statement that contains ``node``."""
        return self._node_block.get(id(node))

    def preds(self) -> Dict[int, List[Tuple[int, str]]]:
        """Predecessor map over every edge kind."""
        out: Dict[int, List[Tuple[int, str]]] = {b.id: [] for b in self.blocks}
        for block in self.blocks:
            for dst, kind in block.succs:
                out[dst].append((block.id, kind))
        return out

    def dominators(self) -> Dict[int, set]:
        """Dominator sets per block (iterative dataflow, all edge kinds)."""
        if self._doms is not None:
            return self._doms
        all_ids = {b.id for b in self.blocks}
        preds = self.preds()
        dom: Dict[int, set] = {b.id: set(all_ids) for b in self.blocks}
        dom[self.entry] = {self.entry}
        changed = True
        while changed:
            changed = False
            for block in self.blocks:
                if block.id == self.entry:
                    continue
                incoming = [dom[p] for p, _ in preds[block.id]]
                new = set.intersection(*incoming) if incoming else set(all_ids)
                new = new | {block.id}
                if new != dom[block.id]:
                    dom[block.id] = new
                    changed = True
        self._doms = dom
        return dom

    def rpo(self) -> List[int]:
        """Reverse postorder over all edges (a good worklist order)."""
        seen: set = set()
        order: List[int] = []

        stack: List[Tuple[int, int]] = [(self.entry, 0)]
        seen.add(self.entry)
        while stack:
            node, idx = stack[-1]
            succs = self.blocks[node].succs
            if idx < len(succs):
                stack[-1] = (node, idx + 1)
                nxt = succs[idx][0]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                order.append(node)
                stack.pop()
        order.reverse()
        # Disconnected blocks (unreachable code) go last, for completeness.
        for block in self.blocks:
            if block.id not in seen:
                order.append(block.id)
        return order


def _expr_text(node: ast.expr) -> str:
    """Canonical text of an expression (``with`` contexts, lock names)."""
    try:
        return ast.unparse(node)
    except (ValueError, RecursionError):  # pragma: no cover - defensive
        return ""


def iter_functions(tree: ast.Module) -> Iterator[Tuple[FunctionNode, Optional[ast.ClassDef]]]:
    """Yield every function with its enclosing class (methods) or None.

    Nested functions are yielded too (their own CFGs); class bodies are
    walked one level deep, which covers the codebase's layout.
    """

    def _walk(nodes: Sequence[ast.stmt], owner: Optional[ast.ClassDef]) -> Iterator[
        Tuple[FunctionNode, Optional[ast.ClassDef]]
    ]:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, owner
                yield from _walk(node.body, owner)
            elif isinstance(node, ast.ClassDef):
                yield from _walk(node.body, node)

    yield from _walk(tree.body, None)


def build_cfgs(module: "ModuleFileLike") -> Dict[int, Tuple[FunctionNode, CFG, Optional[ast.ClassDef]]]:
    """CFGs for every function in a module, memoized on the module object.

    Keyed by ``id(funcdef)``; the flow rules share one build per file so
    three rules do not pay three constructions.
    """
    store = getattr(module, "analysis_cache", None)
    if store is not None and "cfgs" in store:
        return store["cfgs"]
    cache = {}
    for func, owner in iter_functions(module.tree):
        cache[id(func)] = (func, CFG(func), owner)
    if store is not None:
        store["cfgs"] = cache
    return cache


class ModuleFileLike:  # pragma: no cover - typing aid only
    tree: ast.Module
