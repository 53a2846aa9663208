"""The YCSB op stream, pinned: one SHA-256 per (preset, distribution,
seed) over 3,000 ops drawn through ``take``, ``next_op`` and iteration
mixed on one instance.  Every E-table, chaos cell and bench repeat
starts from such a stream, so a change to how it is drawn must leave
these digests as they are.  Below them: what an op costs in Python
frames, the ``next_op`` hook ``bench/spans.py`` times, and how often
latest keys sum zeta."""

import hashlib
import itertools
import sys

import pytest

from repro.workload import OpSpec, YCSBWorkload, ZipfianKeys

from .test_hot_path_audit import _python_frames

PRESETS = "ABCDF"
DISTRIBUTIONS = ("default", "uniform", "zipfian", "latest")
SEEDS = (0, 7, 42)
CASES = list(itertools.product(PRESETS, DISTRIBUTIONS, SEEDS))


def _mixed_draw(workload, count, block=100):
    """``count`` ops, taken in blocks that cycle through the three ways
    of drawing: ``take``, ``next_op`` and a fresh ``iter``."""
    ops = []
    ways = itertools.cycle((
        workload.take,
        lambda n: [workload.next_op() for _ in range(n)],
        lambda n: list(itertools.islice(iter(workload), n)),
    ))
    while len(ops) < count:
        ops += next(ways)(min(block, count - len(ops)))
    return ops


def stream_digest(preset, distribution, seed, count=3000):
    workload = YCSBWorkload(
        preset, records=100, seed=seed,
        distribution=None if distribution == "default" else distribution)
    text = "".join(f"{op.op} {op.key} {op.value}\n"
                   for op in _mixed_draw(workload, count))
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    ("A", "default", 0): "9014e105c002e9bed847e6078b2016ec1dc4c0c48bc16ca067dcb7f1dd10f988",
    ("A", "default", 7): "c070d38d7cb65ff124a2ad5d87e6d3b967d86f1681235686e283e0cd835265e7",
    ("A", "default", 42): "c2b2d6603e6882aa999ddca8acebbeecfb903350a3be4879bdb1daf45286d705",
    ("A", "uniform", 0): "ad7b8f38d92e77c0b731b6723c71affa797da4309a16312f3485baf0b50b6281",
    ("A", "uniform", 7): "4cfb469d4990eb421cd606d0dd0c9510f19154a82b09e144d31539fcc88af1c2",
    ("A", "uniform", 42): "de8f7ea3a6bfad984b45ddf6b941f672ef0e0d22809aab5132ec39150a254c5c",
    ("A", "zipfian", 0): "9014e105c002e9bed847e6078b2016ec1dc4c0c48bc16ca067dcb7f1dd10f988",
    ("A", "zipfian", 7): "c070d38d7cb65ff124a2ad5d87e6d3b967d86f1681235686e283e0cd835265e7",
    ("A", "zipfian", 42): "c2b2d6603e6882aa999ddca8acebbeecfb903350a3be4879bdb1daf45286d705",
    ("A", "latest", 0): "cbb75e41422d65b2b3b6769415cc5fd0958bc1ebf1944674ae7674b02f2abdfa",
    ("A", "latest", 7): "9daacb0cdb1ec814aa4cbf273e130a2b9462cecf4db33d8cfb1898a4c8d20b9c",
    ("A", "latest", 42): "39ab66a351204bd9216109536a36aa0ac331065694d83fc2cf15897cc9570bfe",
    ("B", "default", 0): "ea74637d54b85c547371cd8aee22db114d0ffdd89dc16b62401236b1cab92786",
    ("B", "default", 7): "b3fea921964a62161ba1d1fe8081ddca116426769ef647a1152de219710afa04",
    ("B", "default", 42): "402b981fa5b06ccfac09cf19e7352668aa75e506d5dc2a469e6ccbd4d44b7022",
    ("B", "uniform", 0): "c77c5c411f628a03a8888e415b06811087e4a01b1e787f030aab64f602235a14",
    ("B", "uniform", 7): "1b527195e6d7c5fd34d6e3c006946ce18715d75c91792a858c715b621bb4c4f2",
    ("B", "uniform", 42): "cca0205bf47f42e12e22320e015f3918578efe76944579105452ab01f1eda1cf",
    ("B", "zipfian", 0): "ea74637d54b85c547371cd8aee22db114d0ffdd89dc16b62401236b1cab92786",
    ("B", "zipfian", 7): "b3fea921964a62161ba1d1fe8081ddca116426769ef647a1152de219710afa04",
    ("B", "zipfian", 42): "402b981fa5b06ccfac09cf19e7352668aa75e506d5dc2a469e6ccbd4d44b7022",
    ("B", "latest", 0): "88b353a0f677fa4fdb79d89c774cbd39f72b907f62e9ab56e5d0a9603e03c34a",
    ("B", "latest", 7): "6f486dc41e45ea4334934508f18969a804a5fbd4cc0c8c7bd22da92e1f504dff",
    ("B", "latest", 42): "a089bcc0d2b24518250256404e480912b847370a3830fb2f5d0af87f78d2d529",
    ("C", "default", 0): "fad939b2fb03d163a28788cdb668af0cd00cffab66b13245004bb75b66422935",
    ("C", "default", 7): "53f9305291d1e1d098e72143781ae411457de8d6ff28adf7d97574ef05242116",
    ("C", "default", 42): "0371d8cfd4278ca3be073f029fe0861c6192fc61c26bbfdeab9b142f69e3fe90",
    ("C", "uniform", 0): "63373d5c6ad00f409e7d7b8ab326f042b75a825ab43654fe8e5184d4ae3f33d2",
    ("C", "uniform", 7): "3c740311e8457eeb224e807b9287cca169fae56adfc09798b6ed86c3dbf32a6f",
    ("C", "uniform", 42): "97fff80432d037592a7bca751dcd5c176b5691e21f150f63872420a3ea6b5a55",
    ("C", "zipfian", 0): "fad939b2fb03d163a28788cdb668af0cd00cffab66b13245004bb75b66422935",
    ("C", "zipfian", 7): "53f9305291d1e1d098e72143781ae411457de8d6ff28adf7d97574ef05242116",
    ("C", "zipfian", 42): "0371d8cfd4278ca3be073f029fe0861c6192fc61c26bbfdeab9b142f69e3fe90",
    ("C", "latest", 0): "b35e4ad6c21f2abf8970ea3d964168b33ed3788206935324f738646e21827782",
    ("C", "latest", 7): "c3e3b91844bea1d2b96b680ee0af18e686abb125e6cdee43a76e3b5aeae7efb5",
    ("C", "latest", 42): "9a7822486185d4481b4784d957c1fbcf71ea02b279ac2765084460604471fa6d",
    ("D", "default", 0): "74d451b173e1638634c331695a6eb0b89340ddfd0d004d7e0d7695e16339eea4",
    ("D", "default", 7): "903803f2c2a37544174de6ff46c3eb560102432bd5280682aa87a3b251e5aa28",
    ("D", "default", 42): "e3866c6a1e65c5113c803f6657c01e611ce4d0f44f016ba5cc3abd66e3434cfc",
    ("D", "uniform", 0): "2def829d7513716110511e5c76cb36acc3231c7427a92fbac990c4f686216eb3",
    ("D", "uniform", 7): "b31d6925d7a7ace00012dd14adbf9fcee020ea4876f25d52b1314df673253ef5",
    ("D", "uniform", 42): "1eb7345708ef4bd4ce0b4dffb1b64deb3863e812befdc49c8dbb963e80370d69",
    ("D", "zipfian", 0): "73a50924f9ef13fde2cf4531fd53054c3b11f1026c025c66afec6380c0420ec5",
    ("D", "zipfian", 7): "dd26f62be836103204b2d7d5764c1dc7c902d068541615da335daa2a436676e9",
    ("D", "zipfian", 42): "c7e747e32a3f3175f08f5aa5e77962a445bff3f8457abc67b74a8bbaf99475f7",
    ("D", "latest", 0): "74d451b173e1638634c331695a6eb0b89340ddfd0d004d7e0d7695e16339eea4",
    ("D", "latest", 7): "903803f2c2a37544174de6ff46c3eb560102432bd5280682aa87a3b251e5aa28",
    ("D", "latest", 42): "e3866c6a1e65c5113c803f6657c01e611ce4d0f44f016ba5cc3abd66e3434cfc",
    ("F", "default", 0): "220bf8c106e1e1162848e81c016c5d59b1ffc5fa02e6c4d94dc864b938d22597",
    ("F", "default", 7): "e2928eb210c750c2fe1b5863259a5b364672a3cabfee2f1d27595ba592545692",
    ("F", "default", 42): "1a0f8d96b40b6539867f30fc414d0ad665fa59d20e765563b87a26f43cebc352",
    ("F", "uniform", 0): "86f92766251f696d84514db555d9e131c5a3d10622cd78832b9df54752bf01d3",
    ("F", "uniform", 7): "4da322b513ebb4e8b3bff134ed5996713a993db1ad497842b785738b3e5d10b4",
    ("F", "uniform", 42): "eab6b0b21276230f58716be3a5bee9bfb36908e805a98442ce634812650fe4aa",
    ("F", "zipfian", 0): "220bf8c106e1e1162848e81c016c5d59b1ffc5fa02e6c4d94dc864b938d22597",
    ("F", "zipfian", 7): "e2928eb210c750c2fe1b5863259a5b364672a3cabfee2f1d27595ba592545692",
    ("F", "zipfian", 42): "1a0f8d96b40b6539867f30fc414d0ad665fa59d20e765563b87a26f43cebc352",
    ("F", "latest", 0): "c0eb831e077bef96281fac0b0054611059fe9b9196a388b887c6eb17d93ab709",
    ("F", "latest", 7): "c0719466fa0e9677906bf397ca3440e0b8a61a9f12c167d8f0e810bd5b1d9ac7",
    ("F", "latest", 42): "88cf148a4ff8008aea307a26efcb5f86c43c4a65e7565b2de8860c1c466de2a8",
}


@pytest.mark.parametrize("preset,distribution,seed", CASES)
def test_stream_matches_its_golden_digest(preset, distribution, seed):
    assert stream_digest(preset, distribution, seed) == \
        GOLDEN[preset, distribution, seed]


def test_goldens_cover_every_case_and_tell_them_apart():
    assert sorted(GOLDEN) == sorted(CASES)
    # the default distribution is the preset's own: D's is latest, the
    # others' zipfian; every other pair of cases draws a different stream
    same = {(p, "default", s): (p, "latest" if p == "D" else "zipfian", s)
            for p, _, s in CASES}
    for case, twin in same.items():
        assert GOLDEN[case] == GOLDEN[twin]
    assert len(set(GOLDEN.values())) == len(CASES) - len(same)


# ---------------------------------------------------------------------------
# The per-op path (counts, not timings: timing gates flake on a shared host)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("preset,distribution,ceiling", [
    ("A", None, 3), ("B", None, 3), ("F", None, 3),
    ("D", None, 5),
    ("A", "uniform", 5), ("B", "uniform", 5), ("D", "uniform", 5),
])
def test_frames_per_op(preset, distribution, ceiling):
    """An op is ``next_op``, one resume of the stream's generator and the
    key chooser: 3 frames on Zipfian keys (4.0-4.5 when each op walked
    ``next_op`` -> ``_pick_op`` -> ``choose`` -> ``_next_value`` ->
    ``OpSpec.__init__``); uniform keys add ``randrange`` and
    ``_randbelow`` (6.0-6.5 before); latest keys add ``LatestKeys.choose``,
    and an insert ``advance`` and ``_grow`` (53 at 1,000 records before,
    when each insert re-summed zeta over the whole keyspace)."""
    workload = YCSBWorkload(preset, records=1000, seed=7,
                            distribution=distribution)
    workload.take(10)                           # warm
    count = 2000
    frames = _python_frames(lambda: workload.take(count))
    # Not the path's: the lambda and ``take`` once.
    assert frames - 2 <= ceiling * count, frames / count


def test_a_class_level_wrapper_on_next_op_sees_every_op(monkeypatch):
    """``bench/spans.py`` times the stream by wrapping ``next_op`` on the
    class; a ``take`` or an iterator that went round it, or an instance
    attribute that shadowed it, would read that time as zero."""
    seen = []
    original = YCSBWorkload.next_op

    def wrapper(self):
        op = original(self)
        seen.append(op)
        return op

    early = YCSBWorkload("A", records=100, seed=3)  # built before the patch
    monkeypatch.setattr(YCSBWorkload, "next_op", wrapper)
    late = YCSBWorkload("D", records=100, seed=3)
    for workload in (early, late):
        assert "next_op" not in vars(workload)
        seen.clear()
        drawn = workload.take(50) + list(itertools.islice(workload, 30))
        drawn += [workload.next_op() for _ in range(20)]
        assert seen == drawn and len(drawn) == 100


def test_latest_keys_sum_zeta_once_not_once_per_insert(monkeypatch):
    """D's inserts grow the keyspace one key at a time; zeta grows by a
    running sum (YCSB's incremental zeta), not a re-sum over every key,
    and, where ``sum()`` adds plainly (before 3.12), to the same bits."""
    sums = []
    zeta = ZipfianKeys._zeta
    monkeypatch.setattr(ZipfianKeys, "_zeta",
                        staticmethod(lambda n: sums.append(n) or zeta(n)))
    workload = YCSBWorkload("D", records=100, seed=42)
    inserts = sum(op.op == "insert" for op in workload.take(4000))
    assert inserts > 150
    assert sums == [100]
    grown = workload.keys
    assert grown.n == 100 + inserts
    if sys.version_info < (3, 12):              # 3.12's sum() compensates
        assert (grown.zetan, grown.eta) == (zeta(grown.n), ZipfianKeys(grown.n).eta)


def test_opspec_is_an_immutable_hashable_record():
    spec = OpSpec("read", "user1")
    assert spec.value is None
    assert repr(spec) == "OpSpec(op='read', key='user1', value=None)"
    assert spec == OpSpec(op="read", key="user1", value=None)
    assert hash(spec) == hash(OpSpec("read", "user1"))
    with pytest.raises(AttributeError):
        spec.key = "user2"
    generated = YCSBWorkload("A", records=10, seed=1).next_op()
    assert type(generated) is OpSpec
