"""Builds whose basis change is made non-unitary on purpose."""

from contextlib import contextmanager

import pytest

import blocktrid.transforms as transforms


@contextmanager
def scaled_column(column, factor):
    """Inside the block, every build scales column ``column`` of its U by ``factor``."""
    build = transforms.run_program

    def tampered(*args, **kwargs):
        res = build(*args, **kwargs)
        res.basis[:, column] *= factor
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "run_program", tampered)
        yield
