import pytest

from degseq import harness
from degseq.errors import GoodPairNotFound
from degseq.harness import (
    StreamConfig,
    enumerate_graphic,
    find_good_pair,
    generate_stream,
    report_to_json,
)
from degseq.rao import rao_leq_oracle
from degseq.sequences import erdos_gallai_check, parse_sequence


class TestStreamConfig:
    def test_validates_fields(self):
        with pytest.raises(ValueError):
            StreamConfig(bound=0, max_length=4, seed=0, count=5)
        with pytest.raises(ValueError):
            StreamConfig(bound=1, max_length=4, seed=0, count=1)
        with pytest.raises(ValueError):
            StreamConfig(bound=1, max_length=0, seed=0, count=5)
        with pytest.raises(ValueError):
            StreamConfig(bound=1, max_length=4, seed=0, count=5, generator="magic")


class TestGenerateStream:
    def test_enumerate_all_one_regular(self):
        cfg = StreamConfig(bound=1, max_length=4, seed=0, count=10,
                           generator="enumerate")
        assert [s.entries for s in generate_stream(cfg)] == [(1, 1), (1, 1, 1, 1)]

    def test_enumerate_bound_two(self):
        cfg = StreamConfig(bound=2, max_length=3, seed=0, count=10,
                           generator="enumerate")
        stream = generate_stream(cfg)
        assert [s.entries for s in stream] == [(1, 1), (2, 1, 1), (2, 2, 2)]

    def test_enumerate_respects_count(self):
        cfg = StreamConfig(bound=2, max_length=6, seed=0, count=3,
                           generator="enumerate")
        assert len(generate_stream(cfg)) == 3

    def test_impossible_config(self):
        with pytest.raises(ValueError):
            generate_stream(StreamConfig(bound=1, max_length=1, seed=0, count=5))

    def test_random_mode_is_seed_deterministic(self):
        cfg = StreamConfig(bound=3, max_length=8, seed=123, count=40)
        assert generate_stream(cfg) == generate_stream(cfg)
        other = StreamConfig(bound=3, max_length=8, seed=124, count=40)
        assert generate_stream(cfg) != generate_stream(other)

    def test_random_mode_output_contract(self):
        cfg = StreamConfig(bound=3, max_length=8, seed=5, count=60)
        stream = generate_stream(cfg)
        assert len(stream) == 60
        for seq in stream:
            assert seq.max_degree <= 3
            assert seq.n <= 8
            assert erdos_gallai_check(seq).graphic


class TestImpossibleEntriesSkipped:
    """Entries above max_length - 1 never occur in a graphic sequence."""

    @pytest.fixture
    def few_checks(self, monkeypatch):
        real = harness.erdos_gallai_check
        calls = 0

        def counted(seq):
            nonlocal calls
            calls += 1
            if calls > 10 ** 4:
                raise AssertionError("more than 10^4 graphicality checks")
            return real(seq)

        monkeypatch.setattr(harness, "erdos_gallai_check", counted)

    def test_enumerate_with_a_huge_bound(self, few_checks):
        assert list(enumerate_graphic(10 ** 6, 5)) == list(enumerate_graphic(4, 5))

    def test_random_stream_with_a_huge_bound(self, few_checks):
        stream = generate_stream(StreamConfig(bound=10 ** 6, max_length=4, seed=0, count=5))
        assert len(stream) == 5
        assert all(seq.max_degree <= 3 for seq in stream)


class TestFindGoodPair:
    def test_duplicate_pair_found_first(self):
        stream = [parse_sequence([1, 1]), parse_sequence([1, 1])]
        report = find_good_pair(stream, 1)
        assert (report.i, report.j) == (0, 1)
        assert report.method == "sufficient"
        assert report.prefix_length_scanned == 2
        assert report.witness.validates(stream[0], stream[1])

    def test_three_sequence_stream(self):
        # (2,2,2) never fits below (1,1) or (2,2,2,2,2): its count vector
        # is incomparable or the difference/components fail, and the
        # 5-cycle is triangle-free. (1,1) does embed into the 5-cycle via
        # the component route, so the scan settles on i=1, j=2.
        stream = [parse_sequence([2, 2, 2]), parse_sequence([1, 1]),
                  parse_sequence([2, 2, 2, 2, 2])]
        report = find_good_pair(stream, 2)
        assert (report.i, report.j) == (1, 2)
        assert report.method == "components"
        assert report.prefix_length_scanned == 3
        assert report.witness.validates(stream[1], stream[2])

    def test_any_duplicate_gives_a_pair(self):
        stream = [parse_sequence([2, 1, 1]), parse_sequence([2, 2, 2]),
                  parse_sequence([2, 1, 1])]
        report = find_good_pair(stream, 2)
        assert (report.i, report.j) == (0, 2)

    def test_exhausted_stream_reports(self):
        stream = [parse_sequence([2, 2, 2]), parse_sequence([1, 1])]
        with pytest.raises(GoodPairNotFound) as err:
            find_good_pair(stream, 2)
        assert err.value.scanned == 2

    def test_report_round_trips_to_json(self):
        stream = [parse_sequence([1, 1]), parse_sequence([2, 1, 1, 1, 1])]
        report = find_good_pair(stream, 2)
        data = report_to_json(report)
        assert data["i"] == 0 and data["j"] == 1
        assert data["method"] == report.method
        assert data["witness"]["d1"] == [1, 1]
        assert data["witness"]["d2"] == [2, 1, 1, 1, 1]
        assert len(data["witness"]["embedding"]) == 2

    def test_sufficient_success_is_confirmed_by_oracle(self):
        # the cheap route is sound: whenever it fires on a small pair the
        # exact oracle agrees
        sequences = list(enumerate_graphic(2, 5))
        for i, d1 in enumerate(sequences):
            for d2 in sequences[i:]:
                report = None
                try:
                    report = find_good_pair([d1, d2], 2)
                except GoodPairNotFound:
                    continue
                if report.method == "sufficient":
                    assert rao_leq_oracle(d1, d2) is not None
