"""``pytest.raises`` for errors crossing :mod:`repro.persistence`.

The unified surface raises :class:`~repro.errors.PersistenceError` with
the subsystem's typed error preserved as ``__cause__``; tests that pin
*which* subsystem error a damaged artefact produces assert both.
"""

from contextlib import contextmanager

import pytest

from repro.errors import PersistenceError


@contextmanager
def raises_from(cause: type[BaseException], match: str):
    """``PersistenceError`` matching ``match`` whose cause is a ``cause``."""
    with pytest.raises(PersistenceError, match=match) as info:
        yield info
    assert isinstance(info.value.__cause__, cause), repr(info.value.__cause__)
