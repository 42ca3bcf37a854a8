"""Pinned bytes of the built sampler blocks: ``simplex-limits sample``.

Each digest is the SHA-256 of the CSV that ``sample --kind K --seed 11``
writes.  The experiments reduce their blocks as they draw them, so no report
row runs a built block; these pin it.  The shapes cross the samplers' row
chunk: 70 rows at n=1000 are a 65-row chunk and a partial one, and at
n=70001 a chunk is one row.  A change that means to move a sample re-pins
its digest and says why.
"""

import hashlib

import pytest

from simplex_limits.cli import main

#: (kind, p or None, count, n, SHA-256 of the CSV)
PINNED = [
    ("exponential", None, 70, 1000,
     "eaa97fbdfbee37f50634a01041f875f7db062c9c5436052232dfded5a53ed43c"),
    ("exponential", None, 2, 70001,
     "d9b2b6a6e05d863d2e76194fe5066370f00a09bf445b8c74f9bdb50daa6a903e"),
    ("simplex", None, 70, 1000,
     "7ab89e4017411cf6ac9c8bff469c784818bead2d107488a1573d26afca87d5c2"),
    ("simplex", None, 2, 70001,
     "8f1f24444174924f81fd24db8480713bd176eddcbb8a7d029808b7c1c376b980"),
    ("spacings", None, 70, 1000,
     "03a98f3a61d414d152705ed8335fb56a78856c4ab9a0981e78cd792a9a857e07"),
    ("spacings", None, 2, 70001,
     "b84f5eab9f02bbf9e81aef062263de7f3c3ec19b4a490e13e8bb06ca8627bc9f"),
    ("pgen", 1.0, 70, 1000,
     "352c13d359762ec7892f2b5d61993ffbf3812b5f024eb3c289ac63622cd06d9a"),
    ("pgen", 1.0, 2, 70001,
     "962a36f6eb13f6807c143d327ab2eb30ea1714fd2f8883bc33a797b2f83a1510"),
    ("pgen", 1.5, 70, 1000,
     "d901af95ef825823808cdfd5206d12679abf3e071658613e53060725a87eb65c"),
    ("pgen", 1.5, 2, 70001,
     "984656965378cc85e63a18ef5dbadd1135495e12d7e905fbaf7812c6760f47f6"),
    ("pgen", 2.0, 70, 1000,
     "9c64abcb77412eda77b3b54047bbd8210408a85917f09c6dcea633f0dee19741"),
    ("pgen", 2.0, 2, 70001,
     "10a23a9f04e958745fa7653ce6f5b1a36377c10f0d350d4f9af1b10d0edf79c5"),
    ("ball", 1.0, 70, 1000,
     "964c47a327c286f8515aeb474820a5ce45a66ea101a3a2fa243efdc2e99c8a63"),
    ("ball", 1.0, 2, 70001,
     "3ba58285486bf60f49131e7d8945d5cff9a55d0ed9a0b675c825050155155d76"),
    ("ball", 1.0, 9, 7,
     "1b90e9a7098de669bbefc1aeb8c4ec7c09c8880701a947ae1e7eb1184561c28d"),
    ("ball", 1.5, 70, 1000,
     "29ae7068ed8490be5da4ecb9e8d8ffd1516c0477968aae4ed147b02ae24d1425"),
    ("ball", 1.5, 2, 70001,
     "77f49ebae561651e9649e8e7e6c5171e19bec4c468609296a938310d891b8dc1"),
    ("ball", 2.0, 70, 1000,
     "29c0dd1ead970e1ae6b1bd3acfc2b7d6d4319f6106a6360efa3119d6ccfae0ec"),
    ("ball", 2.0, 2, 70001,
     "32c98007f1507666ac8ef7fb6b5918a9a5dc0425d3860beb8a01725d8f35c7a6"),
]


def _case_id(case):
    kind, p, count, n, _ = case
    return f"{kind}-{count}x{n}" + ("" if p is None else f"-p{p:g}")


@pytest.mark.parametrize("case", PINNED, ids=_case_id)
def test_sample_bytes_match_pinned_digest(case, tmp_path):
    kind, p, count, n, digest = case
    out = tmp_path / "sample.csv"
    args = ["sample", "--kind", kind, "--n", str(n), "--count", str(count), "--seed", "11",
            "--out", str(out)]
    assert main(args + ([] if p is None else ["--p", str(p)])) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
