import gc
import hashlib
import json
import random
import statistics
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from dposforensics import synth
from dposforensics.cli import main
from dposforensics.clustering import cluster_voters, sample_voting_records
from dposforensics.model import TIME_MAX, serialize_action, serialize_header
from dposforensics.motifs import build_vote_events, detect_eight, detect_linear, \
    detect_triangular
from dposforensics.replay import replay, replay_with_snapshots
from dposforensics.synth import (
    BLOCKS_PER_ROUND,
    ROUND_SECONDS,
    ConfigError,
    GenConfig,
    PlantSpec,
    _encode,
    _pareto_stake,
    generate_block_schedule,
    generate_ledger,
    month_windows,
    monthly_sample_times,
)

from oracles import hill_alpha, ref_month_windows
from test_report_pins import CONFIGS, PINS

ROOT = Path(__file__).parents[1]

PRODUCERS = [f"bp{chr(97 + i)}" for i in range(21)]


def small_config(**overrides):
    base = dict(seed=3, n_accounts=120, n_candidates=22, n_proxies=3,
                duration_days=40, participation_rate=0.3, rounds_per_day=1)
    base.update(overrides)
    plants = base.pop("plants", [])
    return GenConfig(plants=plants, **base)


class TestConfig:
    def test_too_few_candidates(self):
        with pytest.raises(ConfigError, match="at least 21"):
            small_config(n_candidates=20).validate()

    def test_plants_over_budget(self):
        plants = [PlantSpec(kind="similar_cluster", size=200)]
        with pytest.raises(ConfigError, match="account budget"):
            small_config(plants=plants).validate()

    def test_unknown_plant_kind(self):
        with pytest.raises(ConfigError, match="unknown plant kind"):
            small_config(plants=[PlantSpec(kind="mystery", size=3)]).validate()

    def test_jitter_range(self):
        with pytest.raises(ConfigError, match="vote_jitter"):
            small_config(plants=[PlantSpec(kind="similar_cluster", size=3,
                                           vote_jitter=0.5)]).validate()

    @pytest.mark.parametrize("name", ["n_accounts", "n_candidates", "n_proxies"])
    def test_counts_past_the_five_letter_names_are_refused(self, name):
        """_encode gives 26**5 names and then repeats them: _encode(26**5) is
        _encode(0)."""
        assert _encode(26**5) == _encode(0)
        config = small_config().to_dict()
        GenConfig.from_dict({**config, name: 26**5})
        with pytest.raises(ConfigError, match=f"{name} must be at most 11881376"):
            GenConfig.from_dict({**config, name: 26**5 + 1})

    def test_rounds_per_day_bound(self):
        """A day holds at most 86,400 / 63 = 1371.4 rounds of 63 s."""
        config = small_config().to_dict()
        assert GenConfig.from_dict({**config, "rounds_per_day": 1371}).rounds_per_day == 1371
        with pytest.raises(ConfigError, match="rounds_per_day must be at most 1371.4"):
            GenConfig.from_dict({**config, "rounds_per_day": 1372})

    @pytest.mark.parametrize("path", sorted(
        [*(ROOT / "perfbench" / "workloads").glob("*.json"),
         ROOT / "tools" / "ledger-l.json", ROOT / "tools" / "plants.json"]),
        ids=lambda path: path.name)
    def test_shipped_configs_are_valid(self, path):
        GenConfig.from_bytes(path.read_bytes())

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            GenConfig.from_dict({"seed": 1, "bogus": True})

    def test_from_file_roundtrip(self, tmp_path):
        config = small_config(plants=[PlantSpec(kind="linear_gang", size=4)])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        loaded = GenConfig.from_bytes(path.read_bytes())
        assert loaded == config

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            GenConfig.from_bytes(path.read_bytes())


class TestDeterminism:
    def test_byte_identical_outputs(self):
        config = small_config(plants=[PlantSpec(kind="linear_gang", size=4),
                                      PlantSpec(kind="similar_cluster", size=4)])
        outs = []
        for _ in range(2):
            trace, headers, truth = generate_ledger(config)
            outs.append((
                "\n".join(serialize_action(a) for a in trace),
                "\n".join(serialize_header(h) for h in headers),
                json.dumps(truth, sort_keys=True),
            ))
        assert outs[0] == outs[1]

    def test_plants_config_bytes_are_pinned(self):
        """tools/plants.json, which plants every kind with every PlantSpec
        field and skips blocks, gives the trace, headers and truth pinned
        here, so that no change to the generator alters its bytes unseen."""
        config_path = Path(__file__).parents[1] / "tools" / "plants.json"
        trace, headers, truth = generate_ledger(
            GenConfig.from_bytes(config_path.read_bytes()))
        texts = ["".join(serialize_action(a) + "\n" for a in trace),
                 "".join(serialize_header(h) + "\n" for h in headers),
                 json.dumps(truth, sort_keys=True)]
        assert [hashlib.sha256(t.encode()).hexdigest() for t in texts] == [
            "1025d43ea3ddfd18d040443b13b00742dda5cfc3fa4537e268edc2887f4a45d9",
            "ec68746cff65c2c395ea0012c91078d9c201bb58e95fae30027069f3153e5608",
            "d4bf8276ddd26b6472a2021d90661df4e3f2e40a70a4a0b8e8300f424d40e54c"]

    def test_generated_lines_need_no_fallback(self, tmp_path, monkeypatch):
        """tools/plants.json and the test_11 config give their pinned ledgers
        with json.dumps unusable: orjson writes every generated line."""
        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr("dposforensics.model.json.dumps", refuse)
        for ledger, config in CONFIGS.items():
            (tmp_path / ledger).mkdir()
            (tmp_path / ledger / "config.json").write_text(config)
            monkeypatch.chdir(tmp_path / ledger)
            result = CliRunner().invoke(main, ["generate", "-c", "config.json",
                                               "-o", "ledger"])
            assert result.exit_code == 0, result.output
            found = {f"ledger/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in Path("ledger").iterdir()}
            found["ledger/stdout"] = hashlib.sha256(result.stdout_bytes).hexdigest()
            pinned = [line.split("  ") for line in PINS[ledger].splitlines()]
            assert found == {path: digest for digest, path in pinned
                             if path.startswith("ledger/")}

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_is_off_and_restored(self, enabled, monkeypatch):
        """generate_ledger runs with the cyclic collector off and gives back
        the caller's setting, after a return and after a ConfigError; the
        ledger, dropped, leaves no cycle for a collection to find."""
        seen = []
        headers_for_trace = synth._headers_for_trace

        def headers(*args):
            seen.append(gc.isenabled())
            return headers_for_trace(*args)

        monkeypatch.setattr(synth, "_headers_for_trace", headers)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            gc.collect()
            generate_ledger(small_config())
            assert gc.isenabled() == enabled
            assert gc.collect() == 0
            with pytest.raises(ConfigError, match="at least 21"):
                generate_ledger(small_config(n_candidates=20))
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]

    def test_different_seeds_differ(self):
        t1, _, _ = generate_ledger(small_config(seed=1))
        t2, _, _ = generate_ledger(small_config(seed=2))
        assert [serialize_action(a) for a in t1] != \
            [serialize_action(a) for a in t2]


class TestTraceValidity:
    def test_replays_without_rejections(self):
        config = small_config(plants=[PlantSpec(kind=k, size=4)
                                      for k in ("similar_cluster", "linear_gang",
                                                "triangular_gang", "eight_gang",
                                                "near_clique")])
        trace, headers, truth = generate_ledger(config)
        assert trace == sorted(trace, key=lambda a: a.order_key())
        _, rejected = replay(trace)
        assert rejected == []
        assert len(truth["plants"]) == 5

    def test_creators_cover_all_non_genesis_accounts(self):
        config = small_config(plants=[PlantSpec(kind="similar_cluster", size=3,
                                                shared_creator=True)])
        trace, _, truth = generate_ledger(config)
        created = {a.payload["created"] for a in trace
                   if a.kind.value == "newaccount"}
        makers = {n for n in created if n.startswith(("maker", "gmk"))}
        assert set(truth["creators"]) == created - makers

    def test_shared_creator_plant(self):
        config = small_config(plants=[PlantSpec(kind="similar_cluster", size=4,
                                                shared_creator=True)])
        _, _, truth = generate_ledger(config)
        plant = truth["plants"][0]
        creators = truth["creators"]
        assert len({creators[m] for m in plant["members"]}) == 1
        assert plant["creator"] == creators[plant["members"][0]]


class TestPlantRealizability:
    def detected(self, config, detector, **kwargs):
        trace, _, truth = generate_ledger(config)
        cands = {a.actor for a in trace if a.kind.value == "regproducer"}
        events = [e for e in build_vote_events(trace)
                  if e.src in cands and e.dst in cands]
        return truth["plants"][0], detector(events, **kwargs)

    def test_linear_pairs_found(self):
        config = small_config(plants=[PlantSpec(kind="linear_gang", size=4)])
        plant, found = self.detected(config, detect_linear)
        detected_pairs = {inst.participants for inst in found}
        for a, b in plant["pairs"]:
            assert tuple(sorted((a, b))) in detected_pairs

    def test_triangular_triples_found(self):
        config = small_config(plants=[PlantSpec(kind="triangular_gang", size=6)])
        plant, found = self.detected(config, detect_triangular)
        detected = {inst.participants for inst in found}
        for triple in plant["triples"]:
            assert tuple(triple) in detected

    def test_eight_quads_found(self):
        config = small_config(plants=[PlantSpec(kind="eight_gang", size=6)])
        plant, found = self.detected(config, detect_eight)
        detected = {inst.participants for inst in found}
        for quad in plant["quads"]:
            assert tuple(quad) in detected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(i=st.integers(0, 26**5 - 2), gap=st.integers(1, 26**5 - 1))
    def test_encode_names_increase_with_the_index(self, i, gap):
        """A plant's accounts are named by _encode of increasing indices, so
        each eight-gang quad, whose pairs are taken in account order, has
        the lower name of each pair first."""
        assert _encode(i) < _encode(min(i + gap, 26**5 - 1))

    def test_similar_cluster_found(self):
        config = small_config(
            participation_rate=1.0, proxy_weight_target=0.0,
            plants=[PlantSpec(kind="similar_cluster", size=5)])
        trace, _, truth = generate_ledger(config)
        members = truth["plants"][0]["members"]
        t0 = config.start_time
        times = monthly_sample_times(t0, t0 + config.duration_days * 86_400)
        _, _, snaps = replay_with_snapshots(trace, times)
        voters = sorted({a.actor for a in trace
                         if a.kind.value == "voteproducer"})
        records = sample_voting_records(snaps, voters)
        clusters = cluster_voters(voters, records, 0.9)
        assert any(set(members) <= c.members for c in clusters)

    def test_near_clique_mutual_votes(self):
        config = small_config(plants=[PlantSpec(kind="near_clique", size=5)])
        plant, found = self.detected(config, detect_linear)
        members = plant["members"]
        detected_pairs = {inst.participants for inst in found}
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                assert tuple(sorted((a, b))) in detected_pairs
        assert len(plant["pendants"]) == 2

    def test_months_restriction(self):
        config = small_config(duration_days=70, plants=[
            PlantSpec(kind="similar_cluster", size=3, months=[1])])
        trace, _, truth = generate_ledger(config)
        members = set(truth["plants"][0]["members"])
        t0 = config.start_time
        windows = month_windows(t0, t0 + 70 * 86_400)
        votes = [a for a in trace if a.actor in members
                 and a.kind.value == "voteproducer"]
        assert votes
        lo, hi = windows[1]
        assert all(lo <= a.timestamp < hi for a in votes)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_month_windows_match_the_month_walk(data):
    """month_windows, derived from month_ends, equals the month-by-month walk,
    also for spans that end in December 9999 or are empty."""
    end = data.draw(st.one_of(
        st.integers(946_684_800, 253_402_300_800),
        st.integers(int(TIME_MAX) - 90 * 86_400, int(TIME_MAX) + 1),
        st.just(int(TIME_MAX) + 1)))
    start = data.draw(st.integers(max(946_684_800, end - 500 * 86_400),
                                  min(end, int(TIME_MAX))))
    assert month_windows(start, end) == ref_month_windows(start, end)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(rounds_per_day=st.one_of(st.integers(1, 1371),
                                st.floats(1, 86_400 / ROUND_SECONDS)))
@example(rounds_per_day=1371)
@example(rounds_per_day=86_400 / ROUND_SECONDS)
def test_header_times_never_run_back(rounds_per_day):
    """Up to the bound on rounds_per_day, each round's blocks end before the
    next round's begin: the header times never decrease as heights rise."""
    config = small_config(n_accounts=60, n_candidates=21, n_proxies=2,
                          duration_days=2, rounds_per_day=rounds_per_day)
    config.validate()
    _, headers, _ = generate_ledger(config)
    assert headers
    assert all(a.height < b.height and a.timestamp <= b.timestamp
               for a, b in zip(headers, headers[1:]))


class TestBlockSchedule:
    def test_skip_free_round(self):
        headers = generate_block_schedule([PRODUCERS], 1000.0)
        assert len(headers) == BLOCKS_PER_ROUND
        assert headers[-1].timestamp - headers[0].timestamp == pytest.approx(62.5)
        per_producer = {}
        for h in headers:
            per_producer[h.producer] = per_producer.get(h.producer, 0) + 1
        assert set(per_producer.values()) == {6}
        assert [h.height for h in headers] == list(range(1, 127))

    def test_producer_blocks_consecutive(self):
        headers = generate_block_schedule([PRODUCERS], 0.0)
        runs = [h.producer for h in headers]
        # 21 runs of 6 identical producers, in schedule order
        assert runs == [p for p in PRODUCERS for _ in range(6)]

    def test_wrong_producer_count(self):
        with pytest.raises(ConfigError, match="exactly 21"):
            generate_block_schedule([PRODUCERS[:20]], 0.0)

    def test_skipped_blocks_consume_heights(self):
        rng = random.Random(4)
        headers = generate_block_schedule([PRODUCERS] * 5, 0.0, skip_rate=0.3,
                                          rng=rng)
        heights = [h.height for h in headers]
        assert heights == sorted(heights)
        assert heights[-1] <= 5 * BLOCKS_PER_ROUND
        assert len(headers) < 5 * BLOCKS_PER_ROUND

    def test_skip_rate_mean_within_three_sigma(self):
        rng = random.Random(11)
        n_rounds = 1000
        headers = generate_block_schedule([PRODUCERS] * n_rounds, 0.0,
                                          skip_rate=0.1, rng=rng)
        per_round = [0] * n_rounds
        for h in headers:
            per_round[(h.height - 1) // BLOCKS_PER_ROUND] += 1
        mean = statistics.fmean(per_round)
        expected = BLOCKS_PER_ROUND * 0.9
        sigma = (BLOCKS_PER_ROUND * 0.9 * 0.1) ** 0.5 / n_rounds ** 0.5
        assert abs(mean - expected) <= 3 * sigma

    def test_generated_headers_follow_round_grid(self):
        config = small_config(rounds_per_day=2)
        _, headers, _ = generate_ledger(config)
        assert headers
        # each sampled round holds exactly 126 headers when skip-free
        by_round = {}
        for h in headers:
            by_round.setdefault((h.height - 1) // BLOCKS_PER_ROUND, []).append(h)
        assert all(len(v) == BLOCKS_PER_ROUND for v in by_round.values())


class TestStakeDistribution:
    def test_alpha_recovered(self):
        from dposforensics.metrics import powerlaw_exponent
        rng = random.Random(9)
        tokens = [_pareto_stake(rng, 1.8) / 10_000 for _ in range(20_000)]
        alpha, _ = powerlaw_exponent(tokens)
        assert alpha == pytest.approx(1.8, abs=0.3)
        assert alpha == pytest.approx(hill_alpha(tokens), abs=0.4)
