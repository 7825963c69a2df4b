"""Unit tests for repro.codes.registry."""

import hashlib
import json

import pytest

from repro.codes.base import CodeError
from repro.codes.registry import (
    ALL_FAMILIES,
    HOT_FAMILIES,
    TREE_FAMILIES,
    family_lengths,
    make_code,
    shortest_covering_code,
)


class TestMakeCode:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_builds_every_family(self, family):
        length = 8 if family in TREE_FAMILIES else 6
        space = make_code(family, 2, length)
        assert space.family == family
        assert space.total_length == length

    def test_case_insensitive(self):
        assert make_code("bgc", 2, 8).family == "BGC"

    def test_sizes(self):
        assert make_code("TC", 2, 8).size == 16
        assert make_code("HC", 2, 6).size == 20
        assert make_code("HC", 2, 8).size == 70

    def test_unknown_family(self):
        with pytest.raises(CodeError):
            make_code("XYZ", 2, 8)

    def test_tree_families_reject_odd_length(self):
        for family in TREE_FAMILIES:
            with pytest.raises(CodeError):
                make_code(family, 2, 7)

    def test_hot_families_require_divisibility(self):
        for family in HOT_FAMILIES:
            with pytest.raises(CodeError):
                make_code(family, 2, 5)


class TestFamilyLengths:
    def test_defaults(self):
        assert family_lengths("TC") == (6, 8, 10)
        assert family_lengths("AHC") == (4, 6, 8)

    def test_override(self):
        assert family_lengths("TC", (2, 4)) == (2, 4)

    def test_unknown(self):
        with pytest.raises(CodeError):
            family_lengths("XYZ")


class TestShortestCoveringCode:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_covers_count(self, family):
        space = shortest_covering_code(family, 2, 10)
        assert space.size >= 10

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_is_minimal(self, family):
        space = shortest_covering_code(family, 2, 10)
        # one size smaller must not cover
        if family in TREE_FAMILIES:
            smaller = 2 ** (space.length - 1)
        else:
            from repro.codes.hot import hot_code_size

            smaller = hot_code_size(2, space.total_length // 2 - 1)
        assert smaller < 10

    def test_unknown(self):
        with pytest.raises(CodeError):
            shortest_covering_code("XYZ", 2, 10)


#: sha256 of the word list (JSON of the words, in order) of every
#: (family, n, M) code the test suite builds; the builders' searches
#: must keep each word order.
PINNED_WORDS = {
    ("AHC", 2, 4): "9bdbba5a629f197dab633e1215670fc25bed629daa16f94daa1a02e85dc68dec",
    ("AHC", 2, 6): "22247dec39129cb4bdff66926e2c446418ca612ed8a919a56a622cf5a1c8eead",
    ("AHC", 2, 8): "c7c89f9823c7eae553a95634a42437a6441eb685c876053cb0fb1c1d908b1711",
    ("AHC", 2, 10): "6fc418d616cd24bb4501021e8d207a003d0d052f6f65b34d2bec05e9640bf83c",
    ("AHC", 3, 3): "41b972d4124732dab58264d79b5b559abeb12dbd019f507791631829d542f7c6",
    ("AHC", 3, 6): "4317b495dc109d6f080f968437233e6da5ed3788982ccd03152271e2a25afc89",
    ("BGC", 2, 4): "c23e0be15f8294710f61689c4dc53ce650da92cd8e281ab2cf160ff995f1dc41",
    ("BGC", 2, 6): "a0c17aea8a3611373722d8a0e3a3ad924e99ef72a6546260de4cab5e60f1cf8a",
    ("BGC", 2, 8): "4592ea6ec3e62e821b4aa42534193fa663714a865bab567af22b90c44e50c430",
    ("BGC", 2, 10): "436601200007d593bba79be3fe8550ac2d12effdb04c55b08e55e2a326f97bf9",
    ("BGC", 3, 4): "6492f7044400420623b13964d639d11b043ea35da30cede0dabdefdb40ff2a3d",
    ("BGC", 3, 6): "804bb5cc7eedda826c6831178e19d9fab6570bed90fb2bc40584d5abd515b333",
    ("BGC", 4, 4): "8512e5e103fe3e7cc48b128390384df7c64b1f075b9f3b28ba342fe21a4df57f",
    ("GC", 2, 2): "9c731319e6f8d3c3e5b97bcf0eb502cf8f79bcd332c8da9fe2d1f69ebb19a9ae",
    ("GC", 2, 4): "48be67c7c22a8b474e7a68ace7ddade82fbe39f1dd99efabe4f0050e29922a62",
    ("GC", 2, 6): "6f42481dd27dc302ad6424d4e8ba152366efab3db9830974b453088a525816b1",
    ("GC", 2, 8): "d238504b44502b9fd8f2754c0f075a40876363b30dc512091693b999d3394cc5",
    ("GC", 2, 10): "077ebdacbe1f2167070ba6c9f44062f0edc046f542f41dc01aa89130f9b83d8d",
    ("GC", 3, 2): "e743549bc64d382cd6be49eaf302163aa318a3cf3af64d150dbc8723430ee88f",
    ("GC", 3, 4): "f1816c99b88652e62e7f1c2d485b07c46b8c508ea1049376240bd33bdcf5325e",
    ("GC", 3, 6): "78d629c301489e59ad6453cedcd99836aa8825127cc83dcbf77bd3640826313e",
    ("GC", 3, 8): "b5328443c50b4a3b633c751e904eaf9f4476a5189621d11b6576bd49180dae0b",
    ("GC", 4, 4): "94d6da8295a49dc534b5463019599fe8c57b2138fdaa21ed6d2a60f69acdd6ba",
    ("HC", 2, 2): "c1b92cfd1182059c03f2934cec0ee71e1df9f08ff9f53dec0f3e468e62a0626c",
    ("HC", 2, 4): "bd6f134f397053203725d65cd8fb0d2168d3473afbcccb4aec08445f9c90d8d6",
    ("HC", 2, 6): "96d6dbf49903bf43257297cbc1640ce5f99f6cf271e355ab399ff65da6b8990d",
    ("HC", 2, 8): "5799c285558ae5e8627c93b76467909dc97e2555e96960395d21d3cd5e822f7a",
    ("HC", 2, 10): "e72de8855e7b8e1eaa63d72de9822c4b228d7c11b29d6188529e9efaf7be431f",
    ("HC", 3, 3): "89f789ec94cf165a14fe2ec3e0e849f0e4dad01780d3aa3c3fc59070712119b5",
    ("HC", 3, 6): "5199e172b6a80874739c3d8e7576ad4eaa7f58424a41fa79888a4a5dec32c484",
    ("TC", 2, 2): "9c731319e6f8d3c3e5b97bcf0eb502cf8f79bcd332c8da9fe2d1f69ebb19a9ae",
    ("TC", 2, 4): "8f4b09865e32dafd43c24be629f86fe10507a26ec4cbce80819cca1c26adb967",
    ("TC", 2, 6): "4815e24555371073b06a3eb3b05fa1d1b90d9ad24456e8d1a27ce64e49de6b70",
    ("TC", 2, 8): "c9aacf9eae7b936e2c1dff565d7d8bf441dc9ca69823079338a9de7bb9e67f05",
    ("TC", 2, 10): "0cf730425d1f9382bf15a8ff658ed4c2e72508dfa0c736f1eb0a5793b0749a99",
    ("TC", 3, 2): "e743549bc64d382cd6be49eaf302163aa318a3cf3af64d150dbc8723430ee88f",
    ("TC", 3, 4): "0d505315f6225f91b5af5c58c34e664bfd2eb619d2555481bb4a955aa8cc2777",
    ("TC", 3, 6): "b52a478b80b8a46f2ca22c0f9daada57ad13d157a7bf0f07634f423b7b341d2c",
    ("TC", 4, 2): "40104c16b963f1eea5e64515b39db05a7cfbecd806f4ad7c6bbb034a279741c1",
    ("TC", 4, 4): "c73d636527d6c842def5cf189e8375290943fc968f87107f52d9f66240aea05c",
    ("TC", 4, 6): "3727c39b8bafab2e8597987655b86a09f731272c1a43db67dfcfb878d99cc28c",
    ("TC", 5, 2): "8de5f4af6759819ed92c6a4f87e4f8ecd9b9de8f70aa808bff60239f356aef72",
    ("TC", 5, 4): "ee3de59f566c8af7103945ebdb8644504ded3b3d9dfeb98344e8f5c64d190fa3",
    ("TC", 5, 6): "6ad171f8e759329d34f2990ce3bd0aa954d824d2f6a25aff05fc15bd286ee78e",
}


class TestPinnedWordOrder:
    @pytest.mark.parametrize("key", PINNED_WORDS, ids="{0[0]}-n{0[1]}-M{0[2]}".format)
    def test_words_unchanged(self, key):
        words = json.dumps([list(w) for w in make_code(*key).words])
        assert hashlib.sha256(words.encode()).hexdigest() == PINNED_WORDS[key]
