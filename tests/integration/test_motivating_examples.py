"""Integration tests: the paper's motivating examples, end to end.

Example 1 is synthesized outright.  Example 2 and Example 3 are expensive
(category C2/C7 tasks whose full search takes tens of seconds to minutes), so
the synthesis runs are marked ``slow``; their reference pipelines are always
checked against the executor so the examples stay correct.
"""

import pytest

from repro import SynthesisConfig, SynthesisRequest, Table, create_session
from repro.components import arrange, filter_rows, gather, group_by, inner_join, mutate, spread, summarise, unite
from repro.dataframe import tables_match_for_synthesis

EX1_INPUT = Table(
    ["id", "year", "A", "B"],
    [[1, 2007, 5, 10], [2, 2007, 3, 50], [1, 2009, 5, 17], [2, 2009, 6, 17]],
)
EX1_OUTPUT = Table(
    ["id", "A_2007", "B_2007", "A_2009", "B_2009"],
    [[1, 5, 10, 5, 17], [2, 3, 50, 6, 17]],
)

FLIGHTS = Table(
    ["flight", "origin", "dest"],
    [[11, "EWR", "SEA"], [725, "JFK", "BQN"], [495, "JFK", "SEA"],
     [461, "LGA", "ATL"], [1696, "EWR", "ORD"], [1670, "EWR", "SEA"]],
)
EX2_OUTPUT = Table(
    ["origin", "n", "prop"],
    [["EWR", 2, 0.6666667], ["JFK", 1, 0.3333333]],
)

POSITIONS = Table(["frame", "X1", "X2", "X3"], [[1, 0, 0, 0], [2, 10, 15, 0], [3, 15, 10, 0]])
SPEEDS = Table(["frame", "X1", "X2", "X3"],
               [[1, 0, 0, 0], [2, 14.53, 12.57, 0], [3, 13.90, 14.65, 0]])
EX3_OUTPUT = Table(
    ["frame", "pos", "carid", "speed"],
    [[2, "X1", 10, 14.53], [3, "X2", 10, 14.65], [2, "X2", 15, 12.57], [3, "X1", 15, 13.90]],
)


class TestReferencePipelines:
    """The R programs shown in Section 2, replayed on our executor."""

    def test_example1_reference_program(self):
        df1 = gather(EX1_INPUT, "var", "val", ["A", "B"])
        df2 = unite(df1, "yearvar", ["var", "year"])
        df3 = spread(df2, "yearvar", "val")
        assert tables_match_for_synthesis(df3, EX1_OUTPUT)

    def test_example2_reference_program(self):
        df1 = filter_rows(FLIGHTS, lambda row: row["dest"] == "SEA")
        df2 = summarise(group_by(df1, ["origin"]), "n", "n")
        df3 = mutate(df2, "prop", lambda row, group: row["n"] / sum(group.column_values("n")))
        assert tables_match_for_synthesis(df3, EX2_OUTPUT)

    def test_example3_reference_program(self):
        df1 = gather(POSITIONS, "pos", "carid", ["X1", "X2", "X3"])
        df2 = gather(SPEEDS, "pos", "speed", ["X1", "X2", "X3"])
        df3 = inner_join(df1, df2)
        df4 = filter_rows(df3, lambda row: row["carid"] != 0)
        df5 = arrange(df4, ["carid", "frame"])
        assert tables_match_for_synthesis(df5, EX3_OUTPUT)


def solve_example(inputs, output, timeout):
    """Drive one session over the example to completion; its core result."""
    config = SynthesisConfig(timeout=timeout)
    return create_session(SynthesisRequest.from_tables(inputs, output, config=config)).solve()


class TestSynthesis:
    def test_example1_is_synthesized(self):
        result = solve_example([EX1_INPUT], EX1_OUTPUT, timeout=60)
        assert result.solved
        assert result.size == 3
        names = [line.split("=")[1].strip().split("(")[0] for line in result.render().splitlines()]
        assert names == ["gather", "unite", "spread"]

    @pytest.mark.slow
    def test_example2_is_synthesized(self):
        result = solve_example([FLIGHTS], EX2_OUTPUT, timeout=120)
        assert result.solved
        assert result.size >= 3

    @pytest.mark.slow
    def test_example3_is_synthesized(self):
        result = solve_example([POSITIONS, SPEEDS], EX3_OUTPUT, timeout=400)
        assert result.solved
