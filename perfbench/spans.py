"""In-memory span recording around the program's public entry points.

The benchmark installs wrappers from its own files (nothing under
``src/`` changes).  Each wrapper records one span: name, group, start,
end, parent span, run id and an optional tag.  A call made while a span
of the same group is already open is not recorded again, so a cache's
block walk that calls its own per-request ``handle_span`` costs one
span, not one per request.  Spans stay in columnar lists until
:meth:`Tracer.write` dumps them at the end of the run.

The *layer* of a span is its group up to the first dot
(``sim.metrics`` belongs to ``sim``).  A span's *self time* is its
duration minus the part covered by its direct children; because one
thread records properly nested spans, the children's durations simply
add up.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "self_times"]


def self_times(
    starts: List[float], ends: List[float], parents: List[int]
) -> List[float]:
    """Per-span self time: duration minus the children's durations.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a
    root.  Spans are properly nested (children start and end inside
    their parent), which one thread guarantees.
    """
    out = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= ends[i] - starts[i]
    return out


class Tracer:
    """Records spans around wrapped callables of one benchmark run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self.groups: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.tags: List[object] = []
        #: wrapper name -> calls not recorded because their group was open
        self.collapsed: Dict[str, int] = {}
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, group: str, tag: object) -> int:
        index = len(self.starts)
        stack = self._stack
        self.names.append(name)
        self.groups.append(group)
        self.parents.append(stack[-1] if stack else -1)
        self.tags.append(tag)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, group: str, tag: object = None) -> Iterator[int]:
        """Record the ``with`` body as one span."""
        index = self._open(name, group, tag)
        try:
            yield index
        finally:
            self._close(index)

    def wrap(
        self,
        fn: Callable,
        name: str,
        group: str,
        tag: Optional[Callable[..., object]] = None,
    ) -> Callable:
        """``fn`` recording a span per call (unless ``group`` is open)."""
        stack = self._stack
        groups = self.groups
        collapsed = self.collapsed
        open_span = self._open
        close_span = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and groups[stack[-1]] == group:
                collapsed[name] = collapsed.get(name, 0) + 1
                return fn(*args, **kwargs)
            index = open_span(name, group, tag(*args) if tag is not None else None)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- installation --------------------------------------------------------

    def install_method(
        self,
        cls: type,
        attr: str,
        group: str,
        tag: Optional[Callable[..., object]] = None,
    ) -> bool:
        """Wrap ``cls.attr`` in place when ``cls`` itself defines it."""
        original = cls.__dict__.get(attr)
        if original is None or getattr(original, "__wrapped_by_tracer__", False):
            return False
        name = f"{cls.__name__}.{attr}"
        setattr(cls, attr, self.wrap(original, name, group, tag))
        self._installed.append((cls, attr, original))
        return True

    def install_function(self, fn: Callable, group: str) -> int:
        """Replace ``fn`` in every ``repro`` module that holds it.

        Modules import functions by name, so patching the defining
        module alone would miss the callers' references.  Returns the
        number of module attributes replaced.
        """
        wrapper = self.wrap(fn, fn.__qualname__, group)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, fn))
                    replaced += 1
        return replaced

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse install order)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> List[float]:
        return self_times(self.starts, self.ends, self.parents)

    def layer_self(self, within: int) -> Dict[str, float]:
        """Self seconds per layer over the subtree of span ``within``."""
        selfs = self.self_times()
        inside = self.subtree(within)
        out: Dict[str, float] = {}
        for i in inside:
            layer = self.groups[i].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + selfs[i]
        return out

    def subtree(self, root: int) -> List[int]:
        """``root`` and every span recorded below it."""
        member = {root}
        out = [root]
        for i in range(root + 1, len(self.starts)):
            if self.parents[i] in member:
                member.add(i)
                out.append(i)
        return out

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def write(self, path: str) -> int:
        """Dump every span as one JSON line; returns the span count."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self.starts)):
                tag = self.tags[i]
                out.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": i,
                            "parent": self.parents[i],
                            "name": self.names[i],
                            "group": self.groups[i],
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "self": selfs[i],
                            "tag": tag if isinstance(tag, (str, int, float, tuple)) else repr(tag),
                        }
                    )
                    + "\n"
                )
        return len(self.starts)
