from ldrank import build_text_matrix
from ldrank.stemmer import STEM_CACHE_SIZE, stem

# Frozen input/output pairs, each verified by hand against the algorithm
# description (regions, longest-match, and the post-removal repairs).
KNOWN = {
    # plural handling
    "caresses": "caress",
    "ponies": "poni",
    "ties": "tie",
    "cries": "cri",
    "cats": "cat",
    "gaps": "gap",
    "kiwis": "kiwi",
    "gas": "gas",
    "this": "this",
    "atlas": "atlas",
    # ed/ing with repairs
    "agreed": "agre",
    "feed": "feed",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "hopping": "hop",
    "hoping": "hope",
    "falling": "fall",
    "filing": "file",
    "meeting": "meet",
    "running": "run",
    "runs": "run",
    "luxuriated": "luxuri",
    # y handling
    "crying": "cri",
    "saying": "say",
    "enjoying": "enjoy",
    "happy": "happi",
    # longer suffix chains
    "conditional": "condit",
    "rational": "ration",
    "national": "nation",
    "generalization": "general",
    "happiness": "happi",
    "replacement": "replac",
    "agreement": "agreement",
    "consistency": "consist",
    "generously": "generous",
    "union": "union",
    # final-e logic
    "cease": "ceas",
    "care": "care",
    "argue": "argu",
    # irregular and invariant forms
    "skis": "ski",
    "skies": "sky",
    "sky": "sky",
    "dying": "die",
    "lying": "lie",
    "tying": "tie",
    "news": "news",
    "bias": "bias",
    "cosmos": "cosmos",
    "early": "earli",
    "only": "onli",
    "ugly": "ugli",
    "singly": "singl",
    # left alone after plural stripping
    "exceed": "exceed",
    "proceed": "proceed",
    "succeed": "succeed",
    "inning": "inning",
    "outing": "outing",
    "herring": "herring",
}


def test_known_vocabulary():
    failures = {w: (stem(w), want) for w, want in KNOWN.items() if stem(w) != want}
    assert not failures, failures


def test_short_words_unchanged():
    for w in ["a", "i", "is", "by", "ox", "zz"]:
        assert stem(w) == w


def test_uppercase_input_is_folded():
    assert stem("Running") == "run"
    assert stem("BERLIN") == stem("berlin")


def test_idempotent_on_common_words():
    # Stemming a stem should not keep eroding it for this vocabulary.
    for w in ["running", "cities", "museums", "rivers", "countries", "flowing"]:
        once = stem(w)
        assert stem(once) == once


def test_inflections_conflate():
    assert stem("running") == stem("runs") == "run"
    assert stem("cities") == stem("city")
    assert stem("museums") == stem("museum")
    # The agent noun stays distinct from the verb.
    assert stem("runner") != stem("running")


def test_non_alpha_tokens_pass_through():
    assert stem("x86") == "x86"
    assert stem("2024") == "2024"
    assert stem("w123") == "w123"


def test_cache_changes_no_stem():
    assert stem.cache_info().maxsize == STEM_CACHE_SIZE
    stem.cache_clear()
    for _cold_then_warm in range(2):
        for w in KNOWN:
            assert stem(w) == stem.__wrapped__(w)
    assert stem.cache_info().hits >= len(KNOWN)


def test_text_matrix_same_bytes_with_cold_and_warm_cache(basic_bundle):
    def arrays():
        m = build_text_matrix(basic_bundle)
        c = m.counts
        return list(m.stem_vocab.items()), [
            (a.dtype, a.tobytes()) for a in (c.data, c.rows, c.cols)]

    stem.cache_clear()
    cold = arrays()
    assert arrays() == cold
