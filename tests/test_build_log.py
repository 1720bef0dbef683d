"""The build log keeps one raw record per offer and formats it when read.

``BuildLog.add`` takes a ``WordInstruction`` (as ``run_program`` passes it)
or its trace string (as the reference executor passes it); ``entries`` and
``to_json`` format the records not read yet, and ``accepted_count`` counts
the raw records.  Whatever the order of adds and reads, the formatted log is
the one a log of trace strings read once at the end would give.
"""

import json
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blocktrid import basis
from blocktrid.basis import BuildLog, LogEntry, run_program
from blocktrid.words import (
    WordInstruction,
    apply_op,
    parse_trace,
    seed,
    seed_vec,
    staircase_program,
)
from test_executor_reference import FAMILIES, PROGRAMS, build_args, gaussian, make_input

OFFERS = [(1, seed(1), True, 1.0, 1), (2, apply_op(1), True, 0.5, 2),
          (3, apply_op(1, adjoint=True), False, 1e-12, None), (4, seed_vec(), False, 0.0, None),
          (5, apply_op(2, op_index=3), True, 2.0, 3)]
ENTRIES = [LogEntry(1, 1, "seed 1", True, 1.0, 1), LogEntry(2, 2, "apply 1 0 1", True, 0.5, 2),
           LogEntry(3, 3, "apply 1 1 1", False, 1e-12, None),
           LogEntry(4, 4, "seed v", False, 0.0, None),
           LogEntry(5, 5, "apply 3 0 2", True, 2.0, 3)]


def replayed(entries):
    """A log of the entries' trace strings, read once at the end."""
    log = BuildLog()
    for e in entries:
        log.add(e.position, e.instruction, e.accepted, e.residual_norm, e.survivor_index)
    return log


def test_entries_read_mid_build_are_extended_by_later_adds():
    log = BuildLog()
    assert log.entries == [] and log.accepted_count == 0 and log.to_json() == "[]"
    for n, offer in enumerate(OFFERS, 1):
        log.add(*offer)
        assert log.entries == ENTRIES[:n]
    assert log.entries == ENTRIES


def test_string_and_word_instructions_mix():
    log = BuildLog()
    for n, (position, instr, *rest) in enumerate(OFFERS):
        log.add(position, instr.trace() if n % 2 else instr, *rest)
    assert log.entries == ENTRIES
    assert all(type(e.instruction) is str for e in log.entries)
    assert log.to_json() == replayed(ENTRIES).to_json()


class Untraced:
    """An instruction whose formatting fails the test."""

    def trace(self):
        raise AssertionError("formatted")


def test_accepted_count_reads_the_raw_records_without_formatting_them():
    log = BuildLog()
    for position, _, *rest in OFFERS:
        log.add(position, Untraced(), *rest)
    assert log.accepted_count == 3


def test_each_record_is_formatted_once():
    calls = []

    class Counted(WordInstruction):
        def trace(self):
            calls.append(self)
            return super().trace()

    log = BuildLog()
    for position, instr, *rest in OFFERS:
        log.add(position, Counted(*instr), *rest)
        log.entries
    log.to_json()
    assert log.entries == ENTRIES and len(calls) == len(OFFERS)


def test_to_json_is_the_encoding_of_the_formatted_entries():
    rng = np.random.default_rng(3)
    log = run_program([gaussian(rng, 9)], staircase_program()).log
    fields = ("position", "position_end", "instruction", "accepted", "residual_norm",
              "survivor_index")
    encoded = json.dumps([dict(zip(fields, e)) for e in log.entries], sort_keys=True)
    assert log.to_json() == encoded
    assert log.to_json() == replayed(log.entries).to_json()


class ReadMidBuild(BuildLog):
    """Keeps every instruction ``run_program`` adds, and reads ``entries``
    after each add whose offer count is in ``reads``."""

    def __init__(self, reads):
        super().__init__()
        self.reads = reads
        self.offered = []

    def add(self, position, instruction, *rest):
        super().add(position, instruction, *rest)
        self.offered.append(instruction)
        if len(self.offered) in self.reads:
            self.entries


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(FAMILIES),
    program=st.sampled_from(PROGRAMS),
    d=st.integers(1, 40),
    seed=st.integers(0, 2 ** 32 - 1),
    reads=st.frozensets(st.integers(1, 200), max_size=8),
)
def test_a_build_log_formats_the_same_whenever_it_is_read(family, program, d, seed, reads):
    rng = np.random.default_rng(seed)
    T = make_input(family, d, rng)
    S, v = gaussian(rng, d), gaussian(rng, d)[0]
    ops, prog, kwargs = build_args(program, T, S, v)
    with mock.patch.object(basis, "BuildLog", lambda: ReadMidBuild(reads)):
        log = run_program(ops, prog, **kwargs).log
    untouched = run_program(ops, prog, **kwargs).log
    assert log.entries == untouched.entries
    # every instruction round-trips through its trace
    assert [parse_trace(e.instruction) for e in log.entries] == log.offered
    assert log.accepted_count == sum(e.accepted for e in log.entries)
    assert log.to_json() == untouched.to_json() == replayed(log.entries).to_json()
