"""Golden CLI outputs: the SHA-256 of stdout and the exit code, per invocation.

The digests were recorded before the CLI dispatch, the triangle kernel and
the weight memo were rewritten; they pin that every subcommand, method,
format, suite and check still prints byte-identical output.  The lehmer
scan to n = 400 was recorded on the Fraction value and Euler-product
kernels, before they moved to ints.  The last three cases were recorded
while `polynomial_sequence` had a loop of its own and the int path was
chosen by a per-function flag: `tilde:id` now takes the int path, and the
rational table `q.json` (four values, so n = 5 is a usage error) goes
through the one recursion loop.  The three cases after those were
recorded while `Poly` kept one Fraction per coefficient, before it moved
to integer numerators over one denominator; `--eval-at=-7/3` pins the
evaluation at a negative rational point.  The last two cases were recorded
while `euler_product_power` multiplied the product out factor by factor
and the hook scan read its rows off the defining recursion at X + 1.
The four cases on the rational h table `r.json` were recorded while the
triangle scaled A[n][m] by G^m D^(n-m) and stored its rows.  The last
three were recorded while the defining recursion at a polynomial point
kept its rows as int columns and `poly` read P_n off the whole sequence;
the first of them is `perfbench/golden.json`'s `poly-recursion` digest, and
the signed tables `s.json` and `t.json` give P_12 negative coefficients.
The lehmer scan to n = 4000 was recorded while the values at x = -24 came
from the quadratic loop, before its int prefix ran by divide and conquer.
The lehmer digests up to n = 4000 were recorded while the product
prod (1 - q^k)^24 came from Miller's recurrence, before it was built from
Jacobi's cube by squarings.
"""

import hashlib
import json

import pytest

from darcais.cli import main

CASES = [
    (('poly', '--g', 'sigma:1', '--h', 'id', '--n', '6'), 0, "2121e5fb2c89162c6fc0ff050a90e155178bb0fbf6049dd1ae4deac1ab00930d"),
    (('poly', '--g', 'sigma:1', '--h', 'id', '--n', '6', '--format', 'json'), 0, "d601eb3c51778fd878bfb48b34ccf8b7848ac18f48ebf6bce2d0ce9f091d2b02"),
    (('poly', '--g', 'sigma:1', '--h', 'id', '--n', '6', '--method', 'series'), 0, "2121e5fb2c89162c6fc0ff050a90e155178bb0fbf6049dd1ae4deac1ab00930d"),
    (('poly', '--g', 'one', '--h', 'one', '--n', '5', '--method', 'series', '--format', 'json'), 0, "273b09bad7abc31e656b03f04fc22ebc15732b364ceb76b3cedfa0bf09f9ec22"),
    (('poly', '--g', 'sigma:1', '--h', 'id', '--n', '6', '--method', 'hook'), 0, "2121e5fb2c89162c6fc0ff050a90e155178bb0fbf6049dd1ae4deac1ab00930d"),
    (('poly', '--g', 'sigma:1', '--h', 'id', '--n', '8', '--eval-at', '-24'), 0, "59eb1ad336b61e1975b82285f6da14f88e772e601704746e2b0618aa7419dd0d"),
    (('poly', '--g', 'tilde:sigma:1', '--h', 'sigma:1', '--n', '5', '--eval-at', '2/3', '--format', 'json'), 0, "0eaa944f163aef059daebcabb6f11469fce25df213da5f598e8c6ff9824bcc31"),
    (('poly', '--g', 'sigma:1', '--h', 'id', '--n', '3', '--eval-at', '1/0'), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('poly', '--g', 'sigma:1', '--h', 'one', '--n', '3', '--method', 'hook'), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('coeff', '--g', 'sigma:1', '--h', 'id', '--n', '6', '--m', '2', '--method', 'recursion'), 0, "cf408df1ac6240d3cda2c92900b1fc694d1a6030dbc8b85588393a5a7ce5a363"),
    (('coeff', '--g', 'sigma:1', '--h', 'id', '--n', '6', '--m', '2', '--method', 'lemma'), 0, "cf408df1ac6240d3cda2c92900b1fc694d1a6030dbc8b85588393a5a7ce5a363"),
    (('coeff', '--g', 'sigma:1', '--h', 'sigma:1', '--n', '6', '--m', '2', '--method', 'main-theorem'), 0, "a8af02b24f1af4aa8feca373baa1c2904326363be6028242d1c1b77e94df011f"),
    (('coeff', '--g', 'sigma:3', '--h', 'one', '--n', '6', '--m', '2', '--method', 'thm1'), 0, "39d61e1900de09ba6f770c0d97db82729eb110497820b28abe3a5dc823f0b457"),
    (('coeff', '--g', 'sigma:1', '--h', 'id', '--n', '6', '--m', '2', '--method', 'thm2'), 0, "cf408df1ac6240d3cda2c92900b1fc694d1a6030dbc8b85588393a5a7ce5a363"),
    (('coeff', '--g', 'id', '--h', 'one', '--n', '6', '--m', '3', '--method', 'composition'), 0, "2a57042a43991d2ca310938e6802d7283954e38c825a548c4bee89c45238b43b"),
    (('coeff', '--g', 'sigma:1', '--h', 'id', '--n', '6', '--m', '2', '--method', 'series'), 0, "cf408df1ac6240d3cda2c92900b1fc694d1a6030dbc8b85588393a5a7ce5a363"),
    (('coeff', '--g', 'sigma:1', '--h', 'id', '--n', '6', '--m', '2', '--method', 'hook'), 0, "cf408df1ac6240d3cda2c92900b1fc694d1a6030dbc8b85588393a5a7ce5a363"),
    (('coeff', '--g', 'tilde:sigma:1', '--h', 'id', '--n', '5', '--m', '2', '--scaled', '--format', 'json'), 0, "1cdf841c37d0ff821c10a32daacc02434a3801caf32e24971f980b6977a09824"),
    (('coeff', '--g', 'sigma:1', '--h', 'id', '--n', '3', '--m', '0', '--method', 'thm2'), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('verify', '--suite', 'oracles', '--max-n', '4'), 0, "7fd35c0f26b4902d054baf7d1a77e8c35535bd90ce1fd144e675b07e70d95703"),
    (('verify', '--suite', 'closed-forms', '--max-n', '4'), 0, "3feb056668844edc1ef29a7125e9f1b753e4519f57dc0902341c593cd82f7c57"),
    (('verify', '--suite', 'conversion', '--max-n', '4'), 0, "1960a7a9e94c0d790dcc21c13217e0b3745627cb0161b3dd7cfd8b9f953083e3"),
    (('verify', '--suite', 'no-formula', '--max-n', '4'), 0, "fbcc66f47df674c1507ed5c13d2e8a825c1463e2023a0447afc0a3c631f51c03"),
    (('verify', '--suite', 'main-theorem', '--max-n', '4'), 0, "c15e2da81d9aebc077a82cf9c5f2613f02f74d096ccfc07907399a88c20f805c"),
    (('verify', '--suite', 'shapes', '--max-n', '4'), 0, "5b7a6f33698bbae54a6da753cb9e648a414b1d5e2e8ab4b9e1b877cdd2e0fe78"),
    (('verify', '--suite', 'all', '--max-n', '4'), 0, "91fc19a6944879d931283cdda2dd2133be7581d258926d0111a19a6753afa9bd"),
    (('scan', '--check', 'lehmer', '--max-n', '12'), 0, "e0b97d736b227b2700c9dbe1447041f00cddb927bd69b3b8938cf896460291d8"),
    (('scan', '--check', 'lehmer', '--max-n', '12', '--format', 'json'), 0, "ad2f1dd690244939b2b7ecc6f95e85188a9d0d266a21d2fdcda19f54aa1ef66e"),
    (('scan', '--check', 'lehmer', '--max-n', '12', '--format', 'csv'), 0, "2ad07673d08d2f7564a036c8ee2995c70b3a1560d3e474eb4ee895fb61488551"),
    (('scan', '--check', 'lehmer', '--max-n', '400'), 0, "95fc1c3cd1b30fcd0df9083d58d078cc4fb9b68a4a889399dcf2a01185463229"),
    (('scan', '--check', 'hook-logconcave', '--max-n', '15'), 0, "e1e7e973028a5fd929c72f97f0ae8c8fffe3a2f6d89183c551f140fdd5f96fb7"),
    (('scan', '--check', 'hook-logconcave', '--max-n', '15', '--format', 'csv'), 0, "edad34b54bfd6956fa0baa8c955b36cf73911504386e62ba8eca58368dc611cd"),
    (('scan', '--check', 'hook-top', '--max-n', '15', '--format', 'json'), 0, "3cb06020f470d9c123eb6c32827b041e612ea5e3665cd985e3d10e768e62e1b8"),
    (('scan', '--check', 'delta', '--g', 'sigma:1', '--h', 'id', '--max-n', '10'), 0, "ada45e1d81c48b056bc4f02cbff701d75590b5757ac20dd77e6d35afa2639938"),
    (('scan', '--check', 'delta', '--g', 'tilde:sigma:1', '--h', 'one', '--max-n', '8', '--format', 'json'), 0, "f1f630a84d461d474df3b0dc2b793366d55e0182a537aff08cce7e02163e4c2d"),
    (('scan', '--check', 'delta', '--g', 'table:g.json', '--h', 'one', '--max-n', '3'), 1, "6b35c0247622b3e45529b80a29e845d404a9c8fe752108322a08377b49a15203"),
    (('export', '--g', 'sigma:1', '--h', 'id', '--max-n', '5'), 0, "1cd0fa4c028c511f8b8a657519527e4c2f509119dd71cd4e7bbc8de4583739a0"),
    (('export', '--g', 'table:q.json', '--h', 'sigma:1', '--max-n', '4', '--format', 'json'), 0, "26306b45c7b33f737701be077b82d4bb22296ba7e77755539205215ae5021e94"),
    (('export', '--g', 'one', '--h', 'id', '--max-n', '5', '--format', 'csv'), 0, "50afc0369cca17ddfcf0709a8c66fdd1badcb2851103af0a839226b2f717e309"),
    (('export', '--g', 'sigma:1', '--h', 'id', '--max-n', '3', '--format', 'text'), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('export', '--g', 'tilde:id', '--h', 'id', '--max-n', '6'), 0, "495e7922ae3de8781ae781c6a3a7a9715ca3d7cc4eabf5cfa7a723ca6b7e971f"),
    (('poly', '--g', 'table:q.json', '--h', 'sigma:1', '--n', '4', '--format', 'json'), 0, "0fabe8b660493e1279cd41d0d49eed6ad712aa1e3b502e826767cfecc9cf135a"),
    (('poly', '--g', 'table:q.json', '--h', 'sigma:1', '--n', '5', '--format', 'json'), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('poly', '--g', 'sigma:1', '--h', 'id', '--n', '40', '--format', 'json'), 0, "a5d78036628791bd9eb2331cd27e04fb3289705c00518ab83b83185fd1bb15fe"),
    (('poly', '--g', 'sigma:1', '--h', 'id', '--n', '40', '--eval-at=-7/3'), 0, "24a9d5ef7689f795ee4299a7dfee0616237a8beda7f06795c9f193d00ddf12a2"),
    (('poly', '--g', 'tilde:sigma:1', '--h', 'sigma:1', '--n', '30', '--format', 'json'), 0, "6106a3e4eb477fd6921525dfe56cd545e9d3ef44aa619b86e69422d83e644d3e"),
    (('scan', '--check', 'lehmer', '--max-n', '1000'), 0, "c49c203b309e31f97d27af55bda52bc672f183e5b2d86f85c700103625477408"),
    (('scan', '--check', 'hook-logconcave', '--max-n', '120'), 0, "91a97b9bb0fe6dbd47b7cd357966503839f6263424c2616810e8525fe1897f2a"),
    (('export', '--g', 'table:q.json', '--h', 'table:r.json', '--max-n', '4'), 0, "1d42a7bc713097bd336589e2a3905882e86c951f5b29226fa119c76a5fc6788f"),
    (('export', '--g', 'table:q.json', '--h', 'table:r.json', '--max-n', '4', '--format', 'csv'), 0, "a60bb013324e9551f3c805c4fe3d0851ef24f9237987e0e424cdcd1a3fe6f0dc"),
    (('export', '--g', 'sigma:1', '--h', 'table:r.json', '--max-n', '5'), 0, "133bd02d0c980aa671a280f764b50f2556c29e7cdd04ff5b8bb583906779e5c7"),
    (('coeff', '--g', 'table:q.json', '--h', 'table:r.json', '--n', '4', '--m', '2', '--method', 'lemma'), 0, "64eca3319f202f8ea2813ca6716554c076c5539ba995bcc60c062e0328e69f46"),
    (('poly', '--g', 'sigma:1', '--h', 'id', '--n', '125', '--format', 'json'), 0, "342e09598b5062368b0ae74299065135c78072332bf44598cc2f48930b7d508d"),
    (('coeff', '--method', 'recursion', '--n', '60', '--m', '7'), 0, "07cb18b186370a6d44920b4164da5ab9ea8a9074a02df3f08dd33e33e92df77a"),
    (('poly', '--g', 'table:s.json', '--h', 'table:t.json', '--n', '12', '--format', 'json'), 0, "322943205436946be2f4e3756470855ca8dfd28fc741a2bc011024f45434dd2d"),
    (('scan', '--check', 'lehmer', '--max-n', '4000'), 0, "e20855ad118df64d432ac6a2197060967c4b4e1e2450dfef96a17f0ed533d396"),
]


@pytest.fixture
def table_dir(tmp_path, monkeypatch):
    # table descriptors are named by relative path, so the path (which
    # appears in export output) is the same on every run
    (tmp_path / "g.json").write_text(json.dumps([1, 1, 8]))
    (tmp_path / "q.json").write_text(json.dumps([1, "1/2", "-3/4", 2]))
    (tmp_path / "r.json").write_text(json.dumps([1, "-2/3", "9/8", "1/6", "5/7"]))
    (tmp_path / "s.json").write_text(json.dumps(
        [1, "-5/3", "7/2", "-1/4", 3, "2/9", -6, "11/5", "-8/7", 4, "1/3", "-9/2"]))
    (tmp_path / "t.json").write_text(json.dumps(
        [1, "-2/3", "9/8", "1/6", "5/7", -3, "4/5", "-7/9", 2, "-1/2", "3/8", "-6/5"]))
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize(
    "argv, code, digest", CASES, ids=[" ".join(argv) for argv, _, _ in CASES]
)
def test_cli_output_is_pinned(capsys, table_dir, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
