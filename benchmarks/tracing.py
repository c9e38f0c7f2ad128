"""Per-layer tracing from outside the program.

`Tracer` rebinds public whyplan names as the calling module sees them (for
example `whyplan.mcts.simulate_step`, which is what `run_mcts` calls) to thin
wrappers that time and count each call. Nothing inside `whyplan` is edited:
the wrappers exist only in the benchmark process and only inside a
`with Tracer(...)` block, so untraced runs execute the original functions.

Each span records its total time, its call count, the exceptions raised
through it (per layer, except those of the `expected` types) and the time of the spans nested directly inside it,
so a layer's self time is its total minus its children.
"""

import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    """One name to rebind: `owner.attr` becomes the span `span`."""

    owner: object
    attr: str
    span: str
    timed: bool = True
    on_result: object = None  # called with the wrapped call's return value


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]


@dataclass
class Tracer:
    targets: list
    total: dict = field(default_factory=lambda: defaultdict(float))   # span -> seconds
    calls: dict = field(default_factory=lambda: defaultdict(int))     # span -> count
    errors: dict = field(default_factory=lambda: defaultdict(int))    # layer -> count
    child: dict = field(default_factory=lambda: defaultdict(float))   # (parent, span) -> s
    missing: list = field(default_factory=list)  # spans whose name no longer exists
    expected: tuple = ()  # exception types that are answers, not errors
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def __enter__(self):
        for target in self.targets:
            original = getattr(target.owner, target.attr, None)
            if original is None:
                self.missing.append(target.span)
                continue
            wrapper = self._timed(target, original) if target.timed else self._counted(
                target, original)
            setattr(target.owner, target.attr, wrapper)
            self._undo.append((target.owner, target.attr, original))
        return self

    def __exit__(self, *exc_info):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def absent(self) -> list:
        """Spans that could not be wrapped or were never called."""
        return sorted(set(self.missing) | {t.span for t in self.targets
                                           if self.calls.get(t.span, 0) == 0})

    def self_ms(self, span: str, *children: str) -> float:
        seconds = self.total.get(span, 0.0) - sum(self.child.get((span, c), 0.0)
                                                   for c in children)
        return 1000.0 * seconds

    def _timed(self, target: Target, fn):
        span, layer, on_result = target.span, layer_of(target.span), target.on_result
        stack, total, calls, errors, child, expected = (
            self._stack, self.total, self.calls, self.errors, self.child, self.expected)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not isinstance(exc, expected):
                    errors[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                total[span] += elapsed
                calls[span] += 1
                if stack:
                    child[(stack[-1], span)] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, target: Target, fn):
        # Count-only: hot leaf functions (hundreds of thousands of calls per
        # plan) would pay more for two clock reads than for the call itself.
        span, layer = target.span, layer_of(target.span)
        calls, errors, expected = self.calls, self.errors, self.expected

        def wrapper(*args, **kwargs):
            calls[span] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if not isinstance(exc, expected):
                    errors[layer] += 1
                raise

        return wrapper
