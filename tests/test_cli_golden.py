"""Byte-for-byte pins of the report commands: for each run on the builtin
algebras and on ut3, the sha256 of stdout and the exit code, as TSV and as
JSON.  The star runs cover grassmann2 over C2xC2, C4 and C2xC2xC2 and
ut2 with the reflection involution.  Most runs stay at n <= 4; three cocharacter tables go to n=5 and n=6,
two identity runs test an 8-fold and a 7-fold power, and one sandwich
search on ut2 certifies full rank at every degree up to 6.  The ut3 runs at
n=5 and n=6 have rank-deficient arrangement matrices, whose ranks need more
than the dimension bound to certify, and at n=6 almost all of their
substitution tuples vanish.  Error runs pin an empty stdout and exit
code 2."""

import hashlib
import json as jsonlib

import pytest

from gpw.cli import main

EMPTY = hashlib.sha256(b"").hexdigest()

# argv with the document named by its key in the ``docs`` fixture, exit
# code, sha256 of the TSV stdout, sha256 of the JSON stdout
GOLDEN = [
    (
        "codim ut2_g --n 3",
        0,
        "c85508b9d4a880a9ddd3d39ff1371d19415dd47115bf54c7c93965746aa3c91b",
        "bb501b0e441e62c734af7ad0ea2b0b4c044670ee59f3680499615ddc138382f3",
    ),
    (
        "codim grassmann2 --n 2",
        0,
        "e2dfcbfc588489a095dead84392493ddb5847d8c83d683e95c2e74e74fdf9c2f",
        "0400ce105b354adfc3d199442f1e241dae97acae832c019c4d18309fb8717c3f",
    ),
    (
        "cochar k_g --n 3",
        0,
        "61a5995883eda886b01ee66b98efce8ca70d58b448c8fd881c0e83db4e1fb1b6",
        "cd16f705b8bc17cbc6b051eb5dcf30fb7a2710991a3548ecca54926925f4bb9c",
    ),
    (
        "cochar grassmann2 --n 3 --n-max 4",
        0,
        "531f7ee2ace07328c036e116d062ea23c1b71e963192effc9dbb329635669031",
        "52b695d149b67e961d87749b6f4d39d8c6a791ad7df0ce44b925001908642655",
    ),
    (
        "identity ut2_trivial --poly=[x{1,1},x{2,1}]*[x{3,1},x{4,1}]",
        0,
        "f0d846353b67da05e0aa0c3e1de988e5893a52ebe39a3f67c0c3981173a653f1",
        "225205c169b68ba994ed3b16a348137285e8b009963089cda05fdcd8391d862e",
    ),
    (
        "identity k_g --poly=-3*x{1,g}*x{2,g}+x{2,g}*x{1,g}",
        1,
        "653c200f741706eaa0577670e8df71fce2aba519a5628f4d7f20f3b4e79a445b",
        "0486b918154ae0b8777ffdaec47d548c1e3f68f718b055c1332fa70d145b5fd2",
    ),
    (
        "identity ut2_g --poly=" + "*".join(["x{1,g}"] * 8),
        0,
        "b9e7bec15af2c334349ab741744a1f44474f89dfb36568ddb2ee6f1f3382d415",
        "ca31867acd08ded05e039f85d859b4cfb1f85fa18eaa6b9708d907261a5af547",
    ),
    (
        "identity grassmann2 --poly=" + "*".join(["y{1,(0,0)}"] * 7),
        1,
        "7fd3d493689085204b8581b4a94df31083be86fa85338e25f6dcf9e5d6d68425",
        "d8852eb219e8aba852d03ddc0154df42ec260d09fa49c59bafc3a7cbcda10533",
    ),
    (
        "classify-bounded k_g --n-max 4",
        0,
        "eb4a870fbb59eaedbd125863ebfcfe458679366b4d15a96ddf9c244290d5da4b",
        "25c725b7bced20b29997b097bb95ceab9514f4e50fc02e388d1538ee0c947092",
    ),
    (
        "classify-bounded ut2_g --n-max 3",
        1,
        "98b837c4c6a0ed410ec1815767c6d873f1e96f123acb9253f45fd554d20e56cf",
        "29b3118f8c5757552095c490b181197df81e1478a12c400e8404f9cf60b945ad",
    ),
    (
        "classify-bounded ut2_g --n-max 6",
        1,
        "8d366bc4bcab575ebe8235249666db183f9525ec57713faa637a66dd020fbce4",
        "63062025e0e1f03f4485f59a9aaab3434f28b0ede377af66467775b7b5c7b18c",
    ),
    (
        "classify-multone grassmann2",
        0,
        "f529f19439970bc1323ee9f011b862c20eb41dddc744eba0ca473e566fc04c98",
        "5530861537aadd5828a877669049be29b12004a8a5921ca01641dc9b874f5975",
    ),
    (
        "classify-multone m2 --n-max 2",
        1,
        "17aab9f960ffedfda72029a0778f1c4819ce6eaf3ed139c97dce899514e7b36b",
        "2568e3ea5e6fde3337f0db5a858e11e8f8338026c686770e1ea70d92b2cedd68",
    ),
    # below --n-max 2 the commutation scans still read the degree-2 walk,
    # whose table no empirical check reads
    (
        "classify-multone m2 --n-max 1",
        1,
        "766afae88aabceaf6f024d4580ffdd2b0e830388b28457198cf984da8cdf97f5",
        "78f4e8a0a1168bb2a5f21085cbb0de79c73c9776636e04c9cf4721590168bd9f",
    ),
    (
        "classify-multone grassmann2 --n-max 1",
        0,
        "b010c70de2fb7072436269442aac78fc0c561e9657fb5a68b2e400d27364d89b",
        "f472254d18a2a4c1293e6b4d0236fa553ab6d93df57284695523e5f4d05b57a2",
    ),
    (
        "verify-lemmas grassmann2",
        0,
        "4ba459d3b9a6d22dab62c8b3dd84d363780c64e6b01a044a2af9105022c9f69c",
        "c7baf1f9638f9f3b197efccbdc2185d46b4819cc2bfdb349e720d3ba47eb09a5",
    ),
    (
        "verify-lemmas m2 --n-max 3",
        0,
        "ae71d8f6eb2eaec5968c7adb19c2612eb4a600490a08cc20991efd5c585626f4",
        "06c3569ddd3c0a606fd839f01de44bd56c3a2e9253c4d47792e27744a585cd35",
    ),
    (
        "cochar k_g --n 6 --n-max 6",
        0,
        "47cffbe9ef5cae25269f3c46604d246fec6e79c630bfd503ceb91ad51a0ae09f",
        "23b2f9ad5f99d24d5c1cfa9641216b6e0325cb7193c2cccf054183e03dae1768",
    ),
    (
        "cochar grassmann2 --n 5",
        0,
        "18cb5a4601c5d6c43146c0dd87a5cfb27e599ff639d19455ba3d1ba2eda08520",
        "fe818858240ab3bc62bd8b3aa7ff6de1745ec6d9cf499dfd2276f23d9bc1bde1",
    ),
    (
        "codim ut3_trivial --n 5",
        0,
        "313e3cbdc74eb4a2f1c5a1fa510785550bbabf757d09c337e52262db771b998c",
        "a56840898ae456001ecb1bb0d34284cd3ff90fd34de9f83d8b82f0833a41a1f5",
    ),
    (
        "cochar ut3_trivial --n 5",
        0,
        "71aa3ab8c3761ceec56f93c03dc981ac04db287348f7cd875a09291e26487ee9",
        "a15f2799675f1092c58fd30982d15905d31fb8309f2822e5eb1c1ba516a36e90",
    ),
    (
        "codim ut3_c2 --n 5",
        0,
        "9144e6b0db5f7266748ada5c7690566cb5a8885ddeb29227d8db5acba56f48ad",
        "a5ade63dd5c18e71103941111f0d4240c67a8dcabc4164509e7683bc4e3f4b19",
    ),
    (
        "cochar ut3_c2 --n 5",
        0,
        "3b58198c35cefba28a44c53eccb1538e087757a306a65190076768a2dd722cdf",
        "deac73dbad8266af04e2aaa3ffb81b706ce2ad5652ca9e0519ae698eda87d960",
    ),
    (
        "codim ut3_trivial --n 6 --n-max 6",
        0,
        "02c3c8011095d00ac70a3492a73b19afedb79abf3ecfc64260ed6f14906dfac9",
        "a513d321e4330989f976f13082e8b4a9964cd1b683996efc42597d93c43ae0f1",
    ),
    (
        "cochar ut3_trivial --n 6 --n-max 6",
        0,
        "3bfa713963c25eee1865ef027f504496119426593703517dfee7ee575ed2304d",
        "a3ab003dbf29a93d77c5aaeb713416cb697f3e2ec04a70b6ada4e84eb6ba6ba8",
    ),
    (
        "codim ut3_c2 --n 6 --n-max 6",
        0,
        "35ef6cfad68c667b31ea8e2e45beb7ce0789241757b3e6c54d5c711405dbdf4f",
        "983e9082266887a6c83f66643988f7a9b6e17489a90ca9f022fe96a701f42686",
    ),
    (
        "cochar ut3_c2 --n 6 --n-max 6",
        0,
        "bcc9d6cbae2f23b1532967521895d6c1492f657268155a7054a28e79a77fb7db",
        "e32803dfa215d9b72c9badc7a50505daa0c7108ed16e0e88f3bf107852292b2c",
    ),
    # the star reports of a larger group: over C2xC2xC2, 35 of the 3876
    # compositions of 4 leave every empty slot empty
    (
        "cochar grassmann2_c2xc2xc2 --n 4",
        0,
        "fa89279b564b417dea4c0fe4e6966f68c9bc204135b190a42f42c315cf91372d",
        "8a1472cb8214123b79aae995cf3d3bf298aacd9448f482872165cc282f62f9d2",
    ),
    # the widest listings: 15504 compositions of 5 and 3876 of 4 into the 16
    # slots, more than any benchmark job lists
    (
        "cochar grassmann2_c2xc2xc2 --n 5",
        0,
        "d8cd14e5a600188cb65e6b835712a7cf83956d7a523d579fd536798a8993fbb5",
        "64ffb3001bc2e29143c67986980f821eea755c80bab7850b1db735f23dfa49d5",
    ),
    (
        "codim grassmann2_c2xc2xc2 --n 4",
        0,
        "b12e6c6214576cacdca7b809c77c508545549a5814e1e0a390d9b4ca0cb5319c",
        "4bb4e10e3940ee3b5b5d954ea6e7fb412c1edf4b6a4c0a6d87c587af5ee7497b",
    ),
    (
        "cochar grassmann2_c4 --n 4",
        0,
        "8593342544c2c5b9d8c59cd48dc0589a9a149f238f2ee42a0ddb629b29d1fc19",
        "e1ccfbcc8425d59d48d8e99709f43415fdcd81d57f195d5d58911973de969c8d",
    ),
    (
        "classify-multone ut2_reflection --n-max 4",
        0,
        "c204ff5ec467c8a7524679310d3345a6fb5b3a0e2a31d08558940d82e74fe3e6",
        "79a6962628572d1fb4a5417366d8688bf11b95690a7256a161f39bd9f36ef294",
    ),
    (
        "verify-lemmas ut2_reflection --n-max 5",
        0,
        "e13392689da862fe576d3b67d4df3ed4fb59b37d91e354278a1bdf878f6c1e71",
        "f5c752bd80dd4ef409953cb55811bf3323d943aa9345ee22874e03cd90f8cf6a",
    ),
    # the lemma reports on the larger groups: many (grade, kind) slots, whose
    # hypotheses and one-slot multiplicities are read off one arrangement
    # expansion per degree
    (
        "verify-lemmas grassmann2_c2xc2xc2 --n-max 5",
        0,
        "6b46af1007434c4f3bb47135685ddd4971e8a7f41e9e3b6bb6758caec5fa9ac5",
        "3c0b69c009f8ab9c14cf79da0c9fdcdf3ba7b80fd66752ba6f2689b4012c7b84",
    ),
    (
        "verify-lemmas grassmann2_c4 --n-max 5",
        0,
        "4820333cd8e57d8e98ff3dcb0bf1e5ecc1e6068fa56abf243bf8ebe240996426",
        "dc669a7832b7cb0c91899084ac078f9dd5361718b1215dca64dffd8a15ecf52a",
    ),
    ("codim ut2_g --n 6", 2, EMPTY, EMPTY),
    ("cochar k_g --n 4 --n-max 3", 2, EMPTY, EMPTY),
    ("codim ut2_g --n 2 --n-max 8", 2, EMPTY, EMPTY),
    ("classify-bounded k_g --n-max 0", 2, EMPTY, EMPTY),
    ("classify-multone ut2_g", 2, EMPTY, EMPTY),
    ("identity ut2_g --poly=x{1,q}", 2, EMPTY, EMPTY),
]


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize(
    "command, code, tsv, json", GOLDEN, ids=[case[0] for case in GOLDEN]
)
def test_report_bytes_and_exit_code(
    capsys, monkeypatch, docs, fmt, command, code, tsv, json
):
    monkeypatch.delenv("GPW_CACHE", raising=False)
    name, document, *flags = command.split()
    argv = [name, docs[document], *flags] + (["--json"] if fmt == "json" else [])
    rc = main(argv)
    out = capsys.readouterr().out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (
        code,
        tsv if fmt == "tsv" else json,
    )


@pytest.mark.parametrize("m", [10, 20])
@pytest.mark.parametrize(
    "document, letter, code",
    [("ut2_g", "x{1,g}", 0), ("ut2_g", "x{1,1}", 1), ("grassmann2", "y{1,(0,0)}", 1)],
)
def test_verdicts_on_high_powers(capsys, monkeypatch, docs, m, document, letter, code):
    monkeypatch.delenv("GPW_CACHE", raising=False)
    poly = "*".join([letter] * m)
    assert main(["identity", docs[document], f"--poly={poly}"]) == code
    verdict = "true" if code == 0 else "false"
    assert f"is_identity\t{verdict}" in capsys.readouterr().out


def test_ut3_codimension_at_6_is_the_closed_form(capsys, monkeypatch, docs):
    # ut3 at n=6, pinned byte for byte above, is the largest rank-deficient
    # matrix the modular kernel meets in these runs (3009 x 720, rank 630).
    # c_n(UT_3) = 3^(n-2)(n^2-7n+9) + 3(n-2)2^(n-1) + 3, from T(UT_3) = C^3
    # with C the commutator T-ideal (Maltsev) and Drensky's product formula
    monkeypatch.delenv("GPW_CACHE", raising=False)
    n = 6
    closed_form = 3 ** (n - 2) * (n * n - 7 * n + 9) + 3 * (n - 2) * 2 ** (n - 1) + 3
    assert closed_form == 630
    reports = {}
    for command in ("codim", "cochar"):
        assert main([command, docs["ut3_trivial"], "--n", "6", "--n-max", "6", "--json"]) == 0
        reports[command] = jsonlib.loads(capsys.readouterr().out)
    assert reports["codim"]["total"] == closed_form
    cochar = reports["cochar"]
    assert cochar["meta"]["total_codim"] == closed_form
    assert sum(row["multiplicity"] * row["degree"] for row in cochar["support"]) == closed_form
