"""Reversible attribute replacement on classes and modules.

The benchmark measures the program from the outside: it replaces public
functions with timing or counting wrappers for the length of a run and
puts the originals back afterwards, so no source file changes.
"""

from __future__ import annotations

_MISSING = object()


class Patcher:
    """Records every replaced attribute so :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make):
        """Replace ``owner.attr`` with ``make(original_function)``.

        Static and class methods are unwrapped and re-wrapped so the
        replacement binds exactly like the original.
        """
        raw = vars(owner)[attr]       # as defined, descriptor intact
        if isinstance(raw, classmethod):
            self.set(owner, attr, classmethod(make(raw.__func__)))
        elif isinstance(raw, staticmethod):
            self.set(owner, attr, staticmethod(make(raw.__func__)))
        else:
            self.set(owner, attr, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
