"""Byte-for-byte pins of the report commands: for each run on the builtin
algebras, the sha256 of stdout and the exit code, as TSV and as JSON.  Most
runs stay at n <= 4; two cocharacter tables go to n=5 and n=6, and two
identity runs test an 8-fold and a 7-fold power.  Error runs pin an empty
stdout and exit code 2."""

import hashlib

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
