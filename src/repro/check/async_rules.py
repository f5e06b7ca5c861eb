"""Concurrency-safety lint rules for the live tier (the ``REP1xx`` pack).

The REP0xx catalogue (:mod:`repro.check.rules`) protects *simulation*
contracts; these rules protect the *asyncio/threading* contracts that
``repro.net`` and ``repro.proxy`` introduced: one event loop per
:class:`~repro.net.runtime.EventLoopThread`, synchronous callers on other
threads, and coroutines that must never block that shared loop.

========  ===========================  ========================================
code      name                         hazard caught
========  ===========================  ========================================
REP101    no-blocking-call-in-async    blocking call (``time.sleep``, sync
                                       socket/file I/O, subprocess) inside an
                                       ``async def`` stalls every connection
                                       sharing the loop
REP102    no-unawaited-coroutine       a coroutine called but never awaited is
                                       a silent no-op
REP103    no-untracked-task-spawn      ``create_task``/``ensure_future`` whose
                                       result is discarded can be GC'd
                                       mid-flight and swallows exceptions
REP104    no-await-under-sync-lock     ``await`` while holding a
                                       ``threading``-style lock parks the lock
                                       across suspension points (deadlock bait)
REP105    threadsafe-loop-access       loop methods that are not thread-safe
                                       (``call_soon``, ``create_task``)
                                       invoked from synchronous code holding a
                                       loop reference
========  ===========================  ========================================

Every rule is a pure AST check -- no imports of the checked code -- so the
pack runs on fixtures, tests, and the live tree alike.  Deliberate
exceptions carry ``repro: allow[REP1xx]`` markers exactly like the REP0xx
rules.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.lint import LintRule, Module, Violation


def _terminal_name(node: ast.AST) -> str | None:
    """The rightmost identifier of a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _walk_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s body without descending into nested function defs.

    A nested ``def``/``async def``/``lambda`` is its own execution scope --
    a sync helper defined inside a coroutine may legitimately run on
    another thread -- so scope-sensitive rules must not attribute its body
    to the enclosing function.
    """
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class NoBlockingCallInAsyncRule(LintRule):
    """REP101: no blocking calls inside ``async def``.

    One blocked coroutine blocks the *whole* event loop -- every
    connection, timer, and breaker sharing it.  Flags ``time.sleep``,
    synchronous socket dialing, subprocess execution, synchronous file
    I/O (builtin ``open`` and the ``pathlib`` read/write helpers), and
    ``concurrent.futures`` results awaited with ``.result()`` on futures
    produced by the thread bridge (``submit`` /
    ``run_coroutine_threadsafe``) -- calling ``.result()`` on the loop
    thread for work scheduled on that same loop deadlocks it.
    """

    code = "REP101"
    name = "no-blocking-call-in-async"
    description = "blocking call inside async code"

    #: Dotted call chains that block the calling thread outright.
    BLOCKING_CALLS = frozenset(
        {
            "time.sleep",
            "socket.create_connection",
            "socket.getaddrinfo",
            "socket.gethostbyname",
            "subprocess.run",
            "subprocess.call",
            "subprocess.check_call",
            "subprocess.check_output",
            "os.system",
            "urllib.request.urlopen",
            "requests.get",
            "requests.post",
            "requests.request",
        }
    )
    #: Attribute calls that are file I/O no matter the receiver.
    BLOCKING_ATTRS = frozenset(
        {"read_text", "read_bytes", "write_text", "write_bytes"}
    )

    def check(self, module: Module) -> Iterator[Violation]:
        for func in _functions(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            bridged = self._bridge_futures(func)
            for node in _walk_scope(func):
                if not isinstance(node, ast.Call):
                    continue
                dotted = _dotted_name(node.func)
                if dotted in self.BLOCKING_CALLS:
                    yield self.violation(
                        module,
                        node,
                        f"blocking `{dotted}(...)` inside `async def "
                        f"{func.name}` stalls the whole event loop; use "
                        "the asyncio equivalent (e.g. `await "
                        "asyncio.sleep`, `asyncio.open_connection`)",
                    )
                elif (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "open"
                ):
                    yield self.violation(
                        module,
                        node,
                        f"synchronous file I/O (`open`) inside `async def "
                        f"{func.name}`; do file work off-loop (e.g. "
                        "`loop.run_in_executor`) or before entering async "
                        "code",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.BLOCKING_ATTRS
                ):
                    yield self.violation(
                        module,
                        node,
                        f"synchronous file I/O "
                        f"(`.{node.func.attr}`) inside `async def "
                        f"{func.name}` blocks the event loop",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "result"
                    and self._is_bridge_future(node.func.value, bridged)
                ):
                    yield self.violation(
                        module,
                        node,
                        "`.result()` on a thread-bridge future inside "
                        f"`async def {func.name}` can deadlock the loop; "
                        "`await asyncio.wrap_future(...)` instead",
                    )

    @staticmethod
    def _bridge_futures(func: ast.AsyncFunctionDef) -> set[str]:
        """Names assigned from ``submit``/``run_coroutine_threadsafe``."""
        names: set[str] = set()
        for node in _walk_scope(func):
            if not (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
            ):
                continue
            called = _terminal_name(node.value.func)
            if called not in ("submit", "run_coroutine_threadsafe"):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _is_bridge_future(receiver: ast.AST, bridged: set[str]) -> bool:
        if isinstance(receiver, ast.Name) and receiver.id in bridged:
            return True
        if isinstance(receiver, ast.Call):
            called = _terminal_name(receiver.func)
            return called in ("submit", "run_coroutine_threadsafe")
        return False


class NoUnawaitedCoroutineRule(LintRule):
    """REP102: a coroutine call whose result is discarded never runs.

    Calling an ``async def`` returns a coroutine object; dropping it on
    the floor (a bare expression statement) is a silent no-op plus a
    ``never awaited`` warning at GC time.  Only calls that *provably*
    produce a coroutine are flagged -- inside an ``async def``, a bare
    statement calling a module-level ``async def`` by name, a
    ``self.<m>(...)`` whose ``<m>`` is an async method of the enclosing
    class, or ``asyncio.sleep`` -- so sync methods that merely share a
    name with a coroutine elsewhere in the module stay clean.
    """

    code = "REP102"
    name = "no-unawaited-coroutine"
    description = "coroutine called but never awaited"

    @staticmethod
    def _scopes(
        tree: ast.Module,
    ) -> Iterator[tuple[ast.AsyncFunctionDef, set[str], set[str]]]:
        """Yield (async def, module-level async names, class async names)."""
        module_async = {
            node.name
            for node in ast.iter_child_nodes(tree)
            if isinstance(node, ast.AsyncFunctionDef)
        }
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield node, module_async, set()
            elif isinstance(node, ast.ClassDef):
                methods = {
                    child.name
                    for child in ast.iter_child_nodes(node)
                    if isinstance(child, ast.AsyncFunctionDef)
                }
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.AsyncFunctionDef):
                        yield child, module_async, methods

    def check(self, module: Module) -> Iterator[Violation]:
        for func, module_async, class_async in self._scopes(module.tree):
            for node in _walk_scope(func):
                if not (
                    isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                ):
                    continue
                call = node.value
                dotted = _dotted_name(call.func)
                target = _terminal_name(call.func)
                is_coroutine = (
                    dotted == "asyncio.sleep"
                    or (
                        isinstance(call.func, ast.Name)
                        and call.func.id in module_async
                    )
                    or (
                        isinstance(call.func, ast.Attribute)
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id == "self"
                        and call.func.attr in class_async
                    )
                )
                if is_coroutine:
                    yield self.violation(
                        module,
                        node,
                        f"coroutine `{target}(...)` is never awaited; "
                        "`await` it, or hand it to `asyncio.create_task` "
                        "and retain the task",
                    )


class NoUntrackedTaskSpawnRule(LintRule):
    """REP103: fire-and-forget tasks must be retained.

    The event loop keeps only a *weak* reference to tasks; a bare
    ``create_task(...)``/``ensure_future(...)`` statement can be
    garbage-collected mid-flight, and its exception is reported to
    nobody.  Keep a reference and attach a done-callback that discards
    it -- the pattern ``ProxyRouter._spawn`` implements.
    """

    code = "REP103"
    name = "no-untracked-task-spawn"
    description = "task spawned without retaining a reference"

    SPAWNERS = frozenset({"create_task", "ensure_future"})

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
            ):
                continue
            called = _terminal_name(node.value.func)
            if called in self.SPAWNERS:
                yield self.violation(
                    module,
                    node,
                    f"`{called}(...)` result discarded: the loop holds "
                    "only a weak reference, so the task can vanish "
                    "mid-flight and its exception is lost; retain it in "
                    "a set with a done-callback (see "
                    "`ProxyRouter._spawn`)",
                )


class NoAwaitUnderSyncLockRule(LintRule):
    """REP104: never ``await`` while holding a synchronous lock.

    A ``with some_lock:`` block that suspends at an ``await`` keeps the
    *thread* lock held across arbitrary loop iterations; any other
    thread (or any coroutine ending up on a thread that) touching the
    lock deadlocks.  Asyncio locks via ``async with`` are fine.
    """

    code = "REP104"
    name = "no-await-under-sync-lock"
    description = "await while holding a synchronous lock"

    LOCK_FACTORIES = frozenset(
        {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
    )

    def _lock_like(self, expr: ast.AST) -> str | None:
        if isinstance(expr, ast.Call):
            called = _terminal_name(expr.func)
            dotted = _dotted_name(expr.func) or ""
            if called in self.LOCK_FACTORIES and not dotted.startswith(
                "asyncio."
            ):
                return called
            return None
        name = _terminal_name(expr)
        if name is not None and (
            "lock" in name.lower() or "mutex" in name.lower()
        ):
            return name
        return None

    def check(self, module: Module) -> Iterator[Violation]:
        for func in _functions(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in _walk_scope(func):
                # `async with` (ast.AsyncWith) is the sanctioned form.
                if not type(node) is ast.With:  # noqa: E714 - exact type
                    continue
                lock_name = None
                for item in node.items:
                    lock_name = self._lock_like(item.context_expr)
                    if lock_name is not None:
                        break
                if lock_name is None:
                    continue
                for inner in node.body:
                    for sub in ast.walk(inner):
                        if isinstance(sub, ast.Await):
                            yield self.violation(
                                module,
                                sub,
                                f"`await` while holding synchronous lock "
                                f"`{lock_name}`: the thread lock stays "
                                "held across the suspension; use "
                                "`asyncio.Lock` with `async with`, or "
                                "release before awaiting",
                            )
                            break


class ThreadsafeLoopAccessRule(LintRule):
    """REP105: synchronous code must use the thread-safe loop entry points.

    ``loop.call_soon``/``loop.create_task``/``loop.call_later`` are only
    legal *on* the loop's own thread.  Synchronous code that holds a loop
    reference is, in this codebase, by construction on another thread
    (that is what :class:`~repro.net.runtime.EventLoopThread` is for),
    so it must go through ``loop.call_soon_threadsafe``,
    ``asyncio.run_coroutine_threadsafe``, or ``EventLoopThread.submit``.
    ``asyncio.get_event_loop()`` is flagged outright: it hands back a
    thread-local loop that is almost never the live tier's loop.
    """

    code = "REP105"
    name = "threadsafe-loop-access"
    description = "non-thread-safe loop access from synchronous code"

    UNSAFE_METHODS = frozenset(
        {"call_soon", "call_later", "call_at", "create_task"}
    )
    LOOP_NAMES = ("loop",)

    def _loopish(self, receiver: ast.AST) -> bool:
        if isinstance(receiver, ast.Call):
            # get_running_loop() only succeeds on the loop thread, so
            # chained calls on it are safe by construction.
            return _terminal_name(receiver.func) == "get_event_loop"
        name = _terminal_name(receiver)
        return name is not None and name.lower().endswith(self.LOOP_NAMES)

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and _dotted_name(node.func) == "asyncio.get_event_loop"
            ):
                yield self.violation(
                    module,
                    node,
                    "`asyncio.get_event_loop()` returns a thread-local "
                    "loop, not the live tier's; use "
                    "`asyncio.get_running_loop()` inside coroutines or "
                    "an explicitly owned `EventLoopThread`",
                )
        for func in _functions(module.tree):
            if isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in _walk_scope(func):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.UNSAFE_METHODS
                    and self._loopish(node.func.value)
                ):
                    continue
                yield self.violation(
                    module,
                    node,
                    f"`{node.func.attr}` on an event loop from "
                    f"synchronous `{func.name}` is not thread-safe; use "
                    "`call_soon_threadsafe`, "
                    "`asyncio.run_coroutine_threadsafe`, or "
                    "`EventLoopThread.submit`",
                )


ASYNC_RULES: tuple[LintRule, ...] = (
    NoBlockingCallInAsyncRule(),
    NoUnawaitedCoroutineRule(),
    NoUntrackedTaskSpawnRule(),
    NoAwaitUnderSyncLockRule(),
    ThreadsafeLoopAccessRule(),
)
"""The concurrency-safety rule pack, in code order (REP101..REP105)."""


def async_rule_catalogue() -> list[tuple[str, str, str]]:
    """(code, name, description) rows for docs and ``--list-rules``."""
    return [(rule.code, rule.name, rule.description) for rule in ASYNC_RULES]
