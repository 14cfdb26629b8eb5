"""Byte-identity gate: sha256 of every subcommand's report, in every format.

The digests pin reports at small bounds. json is hashed without its
elapsed_seconds line and text without the timing on its last line; nothing
else in a report depends on the run. A digest changes only when a report
does, so a change that means to keep reports identical must keep them all.
"""

from __future__ import annotations

import hashlib
import re

import pytest
from conftest import run_cli

CASES = {
    "rv": ("rv", "--pmax", "13"),
    "lemma2p": ("lemma2p", "--pmax", "11"),
    "sun-p4": ("sun-p4", "--pmax", "11"),
    "guo-bb1": ("guo-bb1", "--pmax", "7", "--x", "1/3", "--x", "-2/5", "--x", "0"),
    "cc": ("cc", "--pmax", "7"),
    "identity": ("identity", "--max", "2"),
    "integrality": ("integrality", "--nmax", "3", "--mmax", "2"),
    "schmidt": ("schmidt", "--nmax", "3", "--mmax", "2"),
}

DIGESTS = {
    ("rv", "json"): "d95a551907f4a2444562cf58aeb6a63ae6d93ffc9dc799f91d48ef9b98d76f9c",
    ("rv", "csv"): "393f59d5e461bc9d477b50062b5e59471a7a200508c900301b46ff3d141de4f7",
    ("rv", "text"): "133ec205edd316a92d577ccde07801d880f5d8edb8abe49f3e1c269909d2b2dd",
    ("lemma2p", "json"): "da60ef2964ae0c95fdb358f03524a3ed3c0cb9ae806979b32de7b13b75e0bcd5",
    ("lemma2p", "csv"): "a7e67f8d8b1b4bf0bc0b947ba31d873b430328ca069b694aa221e812d1f32fb7",
    ("lemma2p", "text"): "d3f69b2a5f2c145f0af037ecea14acfa654700723a79ddcc53020edf284831e4",
    ("sun-p4", "json"): "195ab44e18e942d4a8c5713ccf0db9bb8ea681ac2a4007c8199f891fb6173c90",
    ("sun-p4", "csv"): "be27fafa913ba6b0bf3ef4a56542f1ca2a276c4813cb81b6ad11ffdc378c43a3",
    ("sun-p4", "text"): "8f0287ff26e2da78d3e5c487afbce9bcdd06efaf909151c5ace5401e9d9ab44f",
    ("guo-bb1", "json"): "64fe1e435a5b79d5a972c53d22d83fe264cc64afc345a4b912ca02661e4e6e93",
    ("guo-bb1", "csv"): "00554f0f7878b525d58756fec1607f9b39db3e2681e6f9b4cdbf4be81deacaef",
    ("guo-bb1", "text"): "7741abe87da69b6a6a675617bcc018a378b7db8d7d0131ff82db05cb70120ef0",
    ("cc", "json"): "fdb6183b4a78962038a2f765c6373b275f50444aa678ddae5dee30c55fd986a5",
    ("cc", "csv"): "b3827ab28d64175115d1c5d898ec8f65dad2f72a81652be3dcee088be23251d1",
    ("cc", "text"): "6f33bb169adb8d594bc1ead5139461f25b13e7fdc60dd1d58a8b3f42fce5b704",
    ("identity", "json"): "dfea70e800ee6386703c8b5527e22bc1f5787a71cf7f395e5f2482e6a3bc30f3",
    ("identity", "csv"): "1ab61bbbae687379dabb7468697bbc6beee01d3ee227b666e1b446f4a5aa8ac6",
    ("identity", "text"): "431f84ad05a13c8ccdbbbede47ede7b306cd41c77c31b27ec66216e179724a83",
    ("integrality", "json"): "6bbd7df67728e75f80985ce5bc7566fcbbcae185ee947721076811dcd745bebe",
    ("integrality", "csv"): "2fc3e5fbadd2999250fac734fa5ef2944b77a941c12d7ca29c592772e887ecca",
    ("integrality", "text"): "6e60d6680b551f968b0b21d6050c1b625974fb1e7d70cd54244df5cee7dfbaa0",
    ("schmidt", "json"): "421240c42cca47c65bef22bc554dfbfbd2ff164f3a0f1736dc2f8fedc2736dab",
    ("schmidt", "csv"): "cf7bf140985883daf9a395ac70c55925902706627c2d4751dd58f587b79511a7",
    ("schmidt", "text"): "c0caa9f937467a4245d1955dc4822a9f5815b375703e16d342e55da544563a9a",
}


def _digest(fmt: str, report: str) -> str:
    if fmt == "json":
        report = re.sub(r'^  "elapsed_seconds": .*\n', "", report, flags=re.M)
    elif fmt == "text":
        report = re.sub(r" in \d+\.\d\ds\n\Z", "\n", report)
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.parametrize("name,fmt", sorted(DIGESTS))
def test_report_digest(name, fmt):
    res = run_cli("verify", *CASES[name], "--format", fmt)
    assert res.exit_code == 0, res.output
    assert _digest(fmt, res.output) == DIGESTS[name, fmt]
