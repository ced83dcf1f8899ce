"""Byte stability of the --json reports.

Each entry is the SHA-256 of the --json report one command prints, run from
the corpus directory with bare file names so that the report's input and
command fields do not depend on where the package is installed.  The table
covers every corpus table under check (with --ea where the table has a unit),
order, and states and represent under both goals at two seeds, plus the
corpus morphisms and the projector demo.  effects witness is left out: its
witness vector comes from LAPACK eigenvectors, which differ between builds.
LARGE_DIGESTS pins states and represent under both goals on three tables
past the corpus, built and saved in the test and run from its directory:
the cube on 5 atoms, the chain C_40 and a generated table on 24 elements
with failing pairs.

A change that alters a report on purpose updates its digest here.
"""

import hashlib
import random

import pytest

from gea import corpus
from gea.algebra import AlgebraTable
from gea.cli import main
from gea.generate import random_gea
from reference import write_table

REPORT_DIGESTS = {
    "check singleton.json": "6b5289e9983875b1cd5b240bd16ddc880259ac877ea8b50e26b5b56d984bb508",
    "order singleton.json": "1f7c2a8855a714fad5bbff1df2422c80a8fb2510b55dc17f1401dc575410fa45",
    "states singleton.json --goal order --seed 0": "8307991b3c3b3070f1bfffef7e6b2b71b12ffa8fd9dc1e9a17897e18aec3ecbe",
    "states singleton.json --goal order --seed 5": "b1ce5c3de66bd4a71794614f17ad024282bd3bf75354b7e92331ba689b85e270",
    "states singleton.json --goal separate --seed 0": "709d8ae3746cfd043faac9404beb9598b121ff33327c05b29d7b65d7909c4357",
    "states singleton.json --goal separate --seed 5": "cef8875f60cbde7639c0f54740627897d43276dd910a1a4000c63b1be33f1319",
    "represent singleton.json --goal order --seed 0": "af0667130eb3092913df4712872b8cece6f3a29e4e0450e2fd2e01bae022d65c",
    "represent singleton.json --goal order --seed 5": "7b0c99d85b02b48e00133d9c5442c6b61590e89e53448d733febc428f39056c5",
    "represent singleton.json --goal separate --seed 0": "98c4bd156c0e53eeef5cbbd35bb15ea11e5d0fd809cfbd0206197f08fbb4163d",
    "represent singleton.json --goal separate --seed 5": "2fa5090a960b48da6f48441bf4d93bc9bc040e25534e5fac9fa21c1b025f5525",
    "check excd.json": "b639a02c72fa28a447a2af3e245ce4de2525766946d60990348b16fea9417024",
    "order excd.json": "54bf04185c6372442b4297f0a296f5c2d1933105be26b2f82791326e86f53a52",
    "states excd.json --goal order --seed 0": "9bc3b63a80450ef2e726d442c02e385577566dfa054e6c0ba6f2562579dc52ad",
    "states excd.json --goal order --seed 5": "230a184b648c5797ee34fa849379f963a6ac2bea50489189b063bb6dcd05d9ff",
    "states excd.json --goal separate --seed 0": "08e285649d70f1f1b9d728604c4e004b53008623c9621d7430cf5958c3c7ecae",
    "states excd.json --goal separate --seed 5": "f3aa542800c69151bd8ab2a93f38df1aaa6bfa7c0aa9431f141d3d273a37900c",
    "represent excd.json --goal order --seed 0": "430f58d256aaba4f8f9d230e98a2439c5831d5dacc234c29f34489b0cfc8ee4c",
    "represent excd.json --goal order --seed 5": "13f3d5998ca2af68cb95cbdf8bdfff6d246d530f957ae4ee0784345eb94f6510",
    "represent excd.json --goal separate --seed 0": "956489582235c64b53b795c0d7384ae5920268652005c5417ed79e2931913a2e",
    "represent excd.json --goal separate --seed 5": "6675b62d5122c7948404ca44b921cd1a3d2ffd18bfe5d995a756c857accc4896",
    "check excd_ext.json --ea": "18d9ffa3c9f10c87f41a2beeb41bf31cef2de769cfe7f50d6ed565399de49f51",
    "order excd_ext.json": "ac865efe5ebf361ed98ab504cfb156ef542668e7cbcb6878177f5544211e7726",
    "states excd_ext.json --goal order --seed 0": "5e2b7f4f75b25b97fd8f103659772fbf0d17a356e369d21f97c39666038e05a7",
    "states excd_ext.json --goal order --seed 5": "37a30f1faa3a932dfb5f5549291de510d5deecefbecd6202e7f72467e4ec77a2",
    "states excd_ext.json --goal separate --seed 0": "3fe4888299de68348dd566dd4755c0e7c60eb673d32fd9eb857a056ab414cfab",
    "states excd_ext.json --goal separate --seed 5": "367fa11ec790f8c627874456339d3310503b7d5c04c8e2cb6e28328c745fd83f",
    "represent excd_ext.json --goal order --seed 0": "8bd1f9af70fff108007cc18dcf9a7144bb0ee35b1fc838a5e04326337ac43add",
    "represent excd_ext.json --goal order --seed 5": "11a6c0c0bdec4781978564aaa2c6ee43f20bcfe0c422bd8a82b2752b2aaf079a",
    "represent excd_ext.json --goal separate --seed 0": "02e5986361e1bbecff66b4ea3ff68426a2fa21190279ed7b46a9068b9a13b3b5",
    "represent excd_ext.json --goal separate --seed 5": "1c30e0479eedc9f717dd67681fcf2ad03fe29eebd43e275412db3eb06c430338",
    "check diamond.json --ea": "55df671dfe2dd096e0f9e539be9eb28ed5c6bb1fa7d4d8a79268fbbdcaa0cca6",
    "order diamond.json": "67c7dabda9f47b420bb9938db4816a62d2a6ba80cd1a18074d91c36953c292f1",
    "states diamond.json --goal order --seed 0": "80d5d42a614b9b2c3c14d87ef02f430bd3d4254f1ce7dfd11658d3a6755d58a9",
    "states diamond.json --goal order --seed 5": "96c1494ab9f83950f4f25a9663f4eaaae479a0e435acdaaabc62cd673facf020",
    "states diamond.json --goal separate --seed 0": "2aff053c5b34273135ecfca0a236909b63ceeb5627dcee56ada50d1d3220d5ff",
    "states diamond.json --goal separate --seed 5": "0426f820c44c452ba0d064e26698848894607ea742b39dd74cf0a63f7b9c2335",
    "represent diamond.json --goal order --seed 0": "f67471ac9f2c189d1c7189042369851675ad6e58f0bbef170551d5216b594eb2",
    "represent diamond.json --goal order --seed 5": "fa166d8918ade80dcfd08aa54889e850674a96f4bc3876aba432c2e5d7b86a78",
    "represent diamond.json --goal separate --seed 0": "4fe77c8456f03ecec32941f80b5b4edc50bb0d21a1aeba1bcc0af839c7ee1725",
    "represent diamond.json --goal separate --seed 5": "f609714b840063c1f36c3897b17437c1d112703399871d55148e0f165e50fe86",
    "check chain_c3.json --ea": "2be0031cb758d7a512d6efc4e287b35c0b2de1d21ea666c576021ca7bc7ac63b",
    "order chain_c3.json": "52737d9fa55b404a7c847c01485e1c9e6742f4021af015c89b08ff6b37161644",
    "states chain_c3.json --goal order --seed 0": "bce4467a34d7b36dd5c4607387c573db940b1cc5b954e2eb6d72779d82f73019",
    "states chain_c3.json --goal order --seed 5": "955b1c86253e5bdf2e457f35bc23e0d245bea77cb819af5d0a845a59b13f01e7",
    "states chain_c3.json --goal separate --seed 0": "eca8fb2b916d5c4dd643cda7a8c0b659c4ed8bf5749ff1021f89ade77c0b2d37",
    "states chain_c3.json --goal separate --seed 5": "ed6739d0f1fea9e76eca061869409f0c5d7cae8648372039751aef81d4ceaec2",
    "represent chain_c3.json --goal order --seed 0": "12013d59bfe9e26ecfdf5e5a5c78b187192255ad32acbf09444944487a5f51d0",
    "represent chain_c3.json --goal order --seed 5": "eb475b437f40b2b92e69802ea9df172eae1aa3f1a09086e4ae65e66d95c21bd6",
    "represent chain_c3.json --goal separate --seed 0": "7055eef0557ca4e6599304c3bbe3f3d0b42a0ef9f7086de5e088b2f6271fad3e",
    "represent chain_c3.json --goal separate --seed 5": "34aec12ae611cea3db1a3c33e08fe6b56806ba627c46ba9782ea6fdb5dff93bf",
    "check cube8.json --ea": "d33de13b229d37249b12c16bce0d15b57931915200b7675299f492789303b627",
    "order cube8.json": "d4e2ef01a191a8b59633ec6e5fce07818d6ccbc6fb1e613366222d48f46e038a",
    "states cube8.json --goal order --seed 0": "8c241ace7f6fba49093816f743b06f1965f5410eab67039078b286d79631f07c",
    "states cube8.json --goal order --seed 5": "6de6a48a995fdd64e970cc110525b0c5fac155f69fb18a758a4aa62af1620bc6",
    "states cube8.json --goal separate --seed 0": "24902a39992e9ba3fe65ced44686a082016fa860d64a16093da909cea7c36cb4",
    "states cube8.json --goal separate --seed 5": "4c67ab4aca004eac7af1139dfe2d740b24025b8223e64bc98c653be55734fb8d",
    "represent cube8.json --goal order --seed 0": "69b0ef4368f025887d3ab01b882a7a383f3fd44c58616870062905b9b376f400",
    "represent cube8.json --goal order --seed 5": "55dafeb07817e33f2446f90dc447057e45f34a97e76cf42eb89468798aee8797",
    "represent cube8.json --goal separate --seed 0": "e72d788f6b2a84f7c8fa78bd4a836c48c3bcb8d994c99105b3867eb9f05cacc3",
    "represent cube8.json --goal separate --seed 5": "834c151385c9a6e663bef90cf7c4b44f35247af2a9b5d024ab316372607cd561",
    "check no_states.json": "3103b5c7ec904e2b7ef04ff787cf69d7b1998aee271edae7694ddcb0754d8d22",
    "order no_states.json": "15718e7df043cff220f7cb80cf4ebcb96a0de346b92da850d8efe431a8bc505f",
    "states no_states.json --goal order --seed 0": "307e6464f0cfed893155681728fd7a27c007f86bd48b2edafb7f25a621b26a2f",
    "states no_states.json --goal order --seed 5": "e1871d1e4a8ac55a65310251c39ecc4cc6b9ba070ac25f54c0a0cd0bf9cd84e9",
    "states no_states.json --goal separate --seed 0": "8624ba78e384b31cdd9db04ecaee5263150f4ad01275bb99b0f39a87edb7ce81",
    "states no_states.json --goal separate --seed 5": "5294628db2a15dabca3eea270b57883378af00edd8238e3e03cb41bfcbca97a1",
    "represent no_states.json --goal order --seed 0": "8edceb0c2e35701cd5ec7fc9efe4bed32df4c204fdb0c6aed1abd96ef7dbc3be",
    "represent no_states.json --goal order --seed 5": "668a365f3255cfcbfd6fdb2d9f05015791fa1865584ed3b2b1081b63a95b62a9",
    "represent no_states.json --goal separate --seed 0": "c3cb2ac373a82111fcf5b6a5bd4d3b864e50c6d109fc5a7a3674331e7115941c",
    "represent no_states.json --goal separate --seed 5": "c838e64692536a7b8eee18e4e98747cc87060140c5f232b873060d038ab9178d",
    "check broken_ge3.json": "36bef794a20235891b36a605b6c2aa97b9935d97c272c0dbee58246de44fdafb",
    "order broken_ge3.json": "8776e7629235587a678cbc013c5ddb142dd762c02ad77d7382ee02cbedbb9344",
    "states broken_ge3.json --goal order --seed 0": "636381432487a7a1bce0f59ac3e26417be476b80067059413b529985f9b37bb3",
    "states broken_ge3.json --goal order --seed 5": "63febf1fcadaca3469ab33345b9e7968bd56de1f9ae04833ecfe59160b6b1126",
    "states broken_ge3.json --goal separate --seed 0": "8b3ea3ae0d03fda24b9372ec61f837e1203f1ed8bdc480e0a5e3f1a42248be5b",
    "states broken_ge3.json --goal separate --seed 5": "020fd42ad6091c59f32ee76cf5cdc51c2ac0abf18787fa4cb1b5547695afba3b",
    "represent broken_ge3.json --goal order --seed 0": "60901dbe90c8108f4e0ea7b8bdcb4312a9200f56a6d132b2380099a2696f1715",
    "represent broken_ge3.json --goal order --seed 5": "f9531823b413783645efffa0178db7b8253de7916885ad3a2986706db9bc159c",
    "represent broken_ge3.json --goal separate --seed 0": "93609ce7f3c4b2fd7920e5ce40135d7d1d337f660752aa70f70ce9734c58ca76",
    "represent broken_ge3.json --goal separate --seed 5": "08fbbf27c5927191fe16dbb4b26b2a401be2f1382075a478eb6fc9b3c50fd14f",
    "check ea_no_complement.json --ea": "0e512917cc8c0ecfb87b281b3ae5c4a62e9186a6120eac953b1dfd247c6e006d",
    "order ea_no_complement.json": "94b63012d5a17f9b2c01e2254add1dae0a60e0c1119e8b8d870000469fc768d7",
    "states ea_no_complement.json --goal order --seed 0": "d42a9156e0d22c69f6b6a51fe7784dda5c23440c2d86448f885d0be33ad7ff0e",
    "states ea_no_complement.json --goal order --seed 5": "df28c6dd0c6fafb395fd1cb8b1abda4f9159f65159ceb0e5521eac711293634c",
    "states ea_no_complement.json --goal separate --seed 0": "0d788dd9dd0e144f3b205bfca9b3dfbd012bfe1b046a6babc01176bb418c28aa",
    "states ea_no_complement.json --goal separate --seed 5": "643b3acd113f29984a808f124ecf2a00ba76242b50abf836363942bce3b79d49",
    "represent ea_no_complement.json --goal order --seed 0": "36fcfa9323939b7e76f47c6fbc13f982cce013aa4730647f00677b4653659233",
    "represent ea_no_complement.json --goal order --seed 5": "6080404badd26752ff51e1c5c8f243b59f3bf98c87cd806b73c7ac3ad0192f53",
    "represent ea_no_complement.json --goal separate --seed 0": "fe6d28995006063b5dbfa0bcf10fbe81111fe81b1437f3e199698ec9593590ea",
    "represent ea_no_complement.json --goal separate --seed 5": "a626cd184c18be7f04e1d788532948385d70cec17b3570f007346cfd49b3bf3e",
    "morphism id_d4.json": "8bc562ae4a300fdce8b0076c8c993a99a19e43d7380789cb47486e12bba5bfaa",
    "morphism incl_excd.json": "a0eb0530dac7ce66b07d1024d52d8b7aba668d20ec322599a3d4407a5c92da6f",
    "morphism zero_d4.json": "035df03a05bb35d91ad30f860ae47b20b49bb91a6cbc0eabd6d8c7762367c0b3",
    "effects demo-excd": "c629f465032116bd15ade9261b32ee28124c9af96f2d3ae08f1e2191abfa8b31",
}


@pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(command, capsys, monkeypatch):
    monkeypatch.chdir(corpus.path("diamond").parent)
    main([*command.split(), "--json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[command]


def _cube(atoms):
    """The subsets of atoms atoms as bit masks, a + b = a | b for disjoint a, b."""
    n = 2 ** atoms
    labels = tuple("".join("abcdefgh"[bit] for bit in range(atoms) if mask >> bit & 1) or "0"
                   for mask in range(n))
    return AlgebraTable(labels, 0, {(a, b): a | b for a in range(n) for b in range(n)
                                    if not a & b}, unit=n - 1)


def _chain(n):
    """The chain C_n = {0, ..., n-1}, with i + j defined when i + j < n."""
    return AlgebraTable(tuple(str(k) for k in range(n)), 0,
                        {(i, j): i + j for i in range(n) for j in range(n - i)}, unit=n - 1)


# Tables past the corpus, built here: the LP runs on 31 to 39 variables.
LARGE_TABLES = {
    "cube5.json": (lambda: _cube(5), 0),
    "chain40.json": (lambda: _chain(40), 0),
    "random24.json": (lambda: random_gea(random.Random(3), 24), 3),
}

LARGE_DIGESTS = {
    "states cube5.json --goal order --seed 0": "926b2bd3c5d47c06aca229aa0c3feb7c17a9dd8ad4a3261156fd8889cdcb74ce",
    "states cube5.json --goal separate --seed 0": "090fda0ccff8e5c54d5971b749b69cff5561d906174c89b8347769fdc9444100",
    "represent cube5.json --goal order --seed 0": "9e5bb901f9557514941ca1c15df4fa44f446271c6e622f968a34128fe920562e",
    "represent cube5.json --goal separate --seed 0": "bcd7278728c18d80ba91fc1d3b08ad757233c4a1869e9e317863a7dd06175f83",
    "states chain40.json --goal order --seed 0": "0c5a1cfad21a127aec23faf8eef9d18ab462baa6d7a40b7ed666399d1b6d5de7",
    "states chain40.json --goal separate --seed 0": "162806d6c03f68ce9802db73fb4db67abcc352feb1aad4d355a59ff18add0147",
    "represent chain40.json --goal order --seed 0": "455b36a0c186aaca7fed44147114ad713a5dda258b4dbe41feb7bc22ec6dd77e",
    "represent chain40.json --goal separate --seed 0": "18d42cd5470daef81798e75b6cf53fcbd0dc62cd79e33fa3d0e2bfd199fc6e36",
    "states random24.json --goal order --seed 0": "85ce503042d96f86760d686a87bfc147e4f89aff4286a2972c932fe43e484fd5",
    "states random24.json --goal separate --seed 0": "28baab06489a45d9de8c966af9652b374318c654b900f9496118a44d0be8be40",
    "represent random24.json --goal order --seed 0": "ded401dd67c877ef378d54ddbaf98d5474a113213297c40d8ab39d56c3c4cf40",
    "represent random24.json --goal separate --seed 0": "8ddddba51c6bc4490629583dfdd55d4b5f283b0a17f0612166fd0698fab3bdc0",
}


@pytest.mark.parametrize("command", sorted(LARGE_DIGESTS))
def test_large_table_report_bytes_are_pinned(command, capsys, monkeypatch, tmp_path):
    name = command.split()[1]
    build, code = LARGE_TABLES[name]
    write_table(build(), tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert main([*command.split(), "--json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_DIGESTS[command]
