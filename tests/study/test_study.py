"""User-study tests: catalogs, samplers, validation and determinism.

The published aggregates are asserted in ``tests/paper/``."""

import statistics
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.study import (
    AlexaIndex,
    AppCatalog,
    AppPreferenceSampler,
    BoostStudy,
    CATEGORY_COUNTS,
    FIG1_SITES,
    WebsitePreferenceSampler,
    WeightedSampler,
    ZeroRatingSurvey,
    analyze_coverage,
    builtin_programs,
)


class TestAlexaIndex:
    def test_named_sites_present(self):
        index = AlexaIndex()
        for site in FIG1_SITES:
            assert index.rank(site.domain) == site.rank

    def test_tail_sites_generated(self):
        index = AlexaIndex(tail_count=100)
        tail = [s for s in index.sites() if s.category == "tail"]
        assert len(tail) == 100

    def test_ranks_unique(self):
        index = AlexaIndex()
        ranks = [s.rank for s in index.sites()]
        assert len(ranks) == len(set(ranks))

    def test_unknown_domain(self):
        assert AlexaIndex().rank("not-a-site.example") is None

    def test_sites_sorted_by_rank(self):
        sites = AlexaIndex().sites()
        assert [s.rank for s in sites] == sorted(s.rank for s in sites)


class TestAppCatalog:
    def test_names_unique(self):
        names = AppCatalog().names()
        assert len(names) == len(set(names))

    def test_facebook_is_heaviest(self):
        catalog = AppCatalog()
        heaviest = max(catalog.apps, key=lambda a: a.weight)
        assert heaviest.name == "facebook"

    def test_music_flags(self):
        catalog = AppCatalog()
        music = {a.name for a in catalog.apps if a.music}
        assert "spotify" in music and "soma.fm" in music
        assert "netflix" not in music

    def test_not_in_play_apps_are_na(self):
        catalog = AppCatalog()
        for app in catalog.apps:
            if not app.in_play_store:
                assert app.installs_bucket == "N/A"


class TestWeightedSampler:
    def test_respects_weights(self):
        import random

        sampler = WeightedSampler(["a", "b"], [9.0, 1.0], random.Random(1))
        draws = Counter(sampler.items[i] for i in sampler.draw_indices(2000))
        assert draws["a"] > draws["b"] * 5

    def test_validation(self):
        import random

        with pytest.raises(ValueError):
            WeightedSampler([], [], random.Random(1))
        with pytest.raises(ValueError):
            WeightedSampler(["a"], [1.0, 2.0], random.Random(1))
        with pytest.raises(ValueError):
            WeightedSampler(["a"], [-1.0], random.Random(1))

    @settings(max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_only_returns_items(self, seed):
        import random

        sampler = WeightedSampler(["x", "y", "z"], [1.0, 2.0, 3.0], random.Random(seed))
        assert all(
            sampler.items[i] in ("x", "y", "z") for i in sampler.draw_indices(50)
        )


class TestFig1BoostStudy:
    def test_heavy_tail_shape(self):
        from repro.analysis import is_heavy_tailed

        result = BoostStudy(seed=2016).run()
        assert is_heavy_tailed(result.site_counts)

    def test_figure1_rows_sorted_by_rank(self):
        result = BoostStudy(seed=2016).run()
        rows = result.figure1_rows()
        ranks = [rank for _d, _c, rank in rows]
        assert ranks == sorted(ranks)

    def test_popular_sites_shared_across_homes(self):
        result = BoostStudy(seed=2016).run()
        assert max(result.site_counts.values()) >= 5

    def test_deterministic_given_seed(self):
        a = BoostStudy(seed=7).run()
        b = BoostStudy(seed=7).run()
        assert a.site_counts == b.site_counts

    def test_summary_keys(self):
        summary = BoostStudy(seed=1).run().summary()
        assert {"install_rate", "unique_preference_fraction"} <= set(summary)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoostStudy(homes_offered=0)
        with pytest.raises(ValueError):
            BoostStudy(install_rate=0)


class TestWebsiteSampler:
    def test_user_preferences_distinct(self):
        sampler = WebsitePreferenceSampler(seed=3)
        for _ in range(100):
            picks = sampler.draw_user_preferences()
            domains = [s.domain for s in picks]
            assert len(domains) == len(set(domains))
            assert 1 <= len(domains) <= 3

    def test_head_mass_validation(self):
        with pytest.raises(ValueError):
            WebsitePreferenceSampler(head_mass=1.5)


class TestFig2Survey:
    def test_breakdowns_cover_all_categories(self):
        result = ZeroRatingSurvey(seed=2015).run()
        by_category = Counter(
            result.catalog.get(name).category for name in result.choices
        )
        assert set(by_category) <= set(CATEGORY_COUNTS)
        assert by_category["av_streaming"] >= 20

    def test_popularity_spread(self):
        """Some users choose >500M-install apps, others <1M — the paper's
        headline heavy-tail observation."""
        result = ZeroRatingSurvey(seed=2015).run()
        by_bucket = Counter(
            result.catalog.get(name).installs_bucket for name in result.choices
        )
        assert by_bucket.get(">500M", 0) > 0
        assert by_bucket.get("<1M", 0) > 0

    def test_figure2_bars_descending(self):
        bars = ZeroRatingSurvey(seed=2015).run().figure2_bars()
        counts = [count for _name, count in bars]
        assert counts == sorted(counts, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZeroRatingSurvey(respondents=0)
        with pytest.raises(ValueError):
            ZeroRatingSurvey(interest_rate=2.0)

    def test_app_sampler_draws_catalog_apps(self):
        sampler = AppPreferenceSampler(seed=1)
        names = set(sampler.catalog.names())
        assert all(sampler.draw().name in names for _ in range(100))


class TestCoverage:
    def test_every_program_misses_most_preferences(self):
        result = ZeroRatingSurvey(seed=2015).run()
        report = analyze_coverage(result)
        assert all(c < 0.25 for c in report.program_coverage.values())

    def test_builtin_programs(self):
        names = {p.name for p in builtin_programs()}
        assert {"Wikipedia Zero", "Music Freedom", "Facebook Zero"} <= names
