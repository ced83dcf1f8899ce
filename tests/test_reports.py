"""Byte stability of the --json reports.

Each entry is the SHA-256 of the --json report one command prints, run from
the corpus directory with bare file names so that the report's input and
command fields do not depend on where the package is installed.  The table
covers every corpus table under check (with --ea where the table has a unit),
order, and states and represent under both goals at two seeds, plus the
corpus morphisms and the projector demo.  effects witness is left out: its
witness vector comes from LAPACK eigenvectors, which differ between builds.
LARGE_DIGESTS pins states and represent under both goals on six tables
past the corpus, built and saved in the test and run from its directory:
the cube on 5 atoms, the chain C_40, a generated table on 24 elements
with failing pairs, 16- and 24-atom antichains in shuffled index order, and
C3×C4 glued to no_states at zero, which fails on no_states' two atoms.  It
also pins order (--json and, under a key that starts with "text", the text
form) and check --ea on the cube on 6 atoms and on C4×C4×C4, each in one
shuffled index order: the induced order, its differences and the GE2 scan
on the widest tables the benchmark runs.

A change that alters a report on purpose updates its digest here.
"""

import hashlib
import random

import pytest

from gea import corpus
from gea.algebra import AlgebraTable
from gea.cli import main
from gea.generate import random_gea
from reference import glued, write_table

REPORT_DIGESTS = {
    "check singleton.json": "6b5289e9983875b1cd5b240bd16ddc880259ac877ea8b50e26b5b56d984bb508",
    "order singleton.json": "1f7c2a8855a714fad5bbff1df2422c80a8fb2510b55dc17f1401dc575410fa45",
    "states singleton.json --goal order --seed 0": "8307991b3c3b3070f1bfffef7e6b2b71b12ffa8fd9dc1e9a17897e18aec3ecbe",
    "states singleton.json --goal order --seed 5": "b1ce5c3de66bd4a71794614f17ad024282bd3bf75354b7e92331ba689b85e270",
    "states singleton.json --goal separate --seed 0": "709d8ae3746cfd043faac9404beb9598b121ff33327c05b29d7b65d7909c4357",
    "states singleton.json --goal separate --seed 5": "cef8875f60cbde7639c0f54740627897d43276dd910a1a4000c63b1be33f1319",
    "represent singleton.json --goal order --seed 0": "225370f66c2ebe658645eb7cc6a8f0c206773ebcdb94c53a9d7a3c3b69ec0397",
    "represent singleton.json --goal order --seed 5": "e10cc12e5f684b516cf1ea33529adfe296722306326a25721000b6b8477f698e",
    "represent singleton.json --goal separate --seed 0": "58abbdc802828dd86dd11535f1f20a33b6ce1bdd8e64aeaf874c612e650318cf",
    "represent singleton.json --goal separate --seed 5": "7b97527bd7711770ba46e36685b59167a13d3bf2b48833df6be4ecd975ab8f3c",
    "check excd.json": "b639a02c72fa28a447a2af3e245ce4de2525766946d60990348b16fea9417024",
    "order excd.json": "54bf04185c6372442b4297f0a296f5c2d1933105be26b2f82791326e86f53a52",
    "states excd.json --goal order --seed 0": "fafce5e95bdfb2bcb632bcb6f0a6f00bd84c1ae3115737f6a4ffc81731e9582d",
    "states excd.json --goal order --seed 5": "359933c9da33067d36c52e2b78c5b4abac3ac0a33d65be87e8277ebb8e55c626",
    "states excd.json --goal separate --seed 0": "7f7a0014cf93cfad29f4e59268c7d105f72b826283d6b73b54bf43218bb0204f",
    "states excd.json --goal separate --seed 5": "9e6041f17e92ef18cd102c5ab9d3d2290c30366b1741533eefc7a54f5298951c",
    "represent excd.json --goal order --seed 0": "f9a178dccd729d232cb55e70f6f1e03c5f060e31b51628671abc7af931e6b226",
    "represent excd.json --goal order --seed 5": "d471826e50113b8118a0a25cf24cf78c8d3244826d6a1ea5354f7fb9b4a8e571",
    "represent excd.json --goal separate --seed 0": "54e42ea0260610f58d7ce070677df6a17df9958ac7ac9b6636fadb5edd955237",
    "represent excd.json --goal separate --seed 5": "10e9c747ffe86391a71b5c25080b45ed78cb020c473e8c5c260a92bb3ceca22e",
    "check excd_ext.json --ea": "18d9ffa3c9f10c87f41a2beeb41bf31cef2de769cfe7f50d6ed565399de49f51",
    "order excd_ext.json": "ac865efe5ebf361ed98ab504cfb156ef542668e7cbcb6878177f5544211e7726",
    "states excd_ext.json --goal order --seed 0": "1e07e1d529760b8cbea51f60df6eaf291af1b579958b501ba8b7b106540d051a",
    "states excd_ext.json --goal order --seed 5": "32145a184fd82ad9ca2378903872efba6d5e35d2e2349c5f44b72842bc0e7386",
    "states excd_ext.json --goal separate --seed 0": "2875ba2e368c20181c5349d3f5e983f87bcdc1a997086b77a7fa6e9aa9f1019e",
    "states excd_ext.json --goal separate --seed 5": "c4e9e9275ceece9b8a882ae4b41e43a43f2f6931e456e79f598cb751af10a8e3",
    "represent excd_ext.json --goal order --seed 0": "185e9a1e47c4add2a841578358ae213ffa99a2c543555e8d3ffa0f512b5a91cf",
    "represent excd_ext.json --goal order --seed 5": "6306fe6d00c9b6c10138736d125b906cf77f65191ec533868fa1dc96c44aaa87",
    "represent excd_ext.json --goal separate --seed 0": "ff7fe5c8d3a237518cd34f48d1ca496557daf1257ff7d02be553f44bf703930f",
    "represent excd_ext.json --goal separate --seed 5": "540ebf31464736e65de01afe2e6e01010f7df16a21b3e4fa7098154cecce8b86",
    "check diamond.json --ea": "55df671dfe2dd096e0f9e539be9eb28ed5c6bb1fa7d4d8a79268fbbdcaa0cca6",
    "order diamond.json": "67c7dabda9f47b420bb9938db4816a62d2a6ba80cd1a18074d91c36953c292f1",
    "states diamond.json --goal order --seed 0": "cc7e3af3953818df54e53e0e0859f064e57fd6e16cf177a8bc9f7ed71cab00b4",
    "states diamond.json --goal order --seed 5": "ecc3c96766cf2cbc3ac793002ac07abaa11273a5caec08494f47b02e53f4cb1b",
    "states diamond.json --goal separate --seed 0": "02e54e4f67bdab6853e1468c2d47c7c3d77a0b07830c4b4b013f19ad2e33b954",
    "states diamond.json --goal separate --seed 5": "079851ca74dc8fdb4dc3160e0381ce4f0dad3227e1b8e065c3730f3951e15b32",
    "represent diamond.json --goal order --seed 0": "ce5ccd5a1c44a31b1b777a1bb6d860f9ca9a8c4a62c7c9e34e05f0ce7c007489",
    "represent diamond.json --goal order --seed 5": "8e3200c98bf97b43043fa450eef2b48cc6bc54070c0635eb845e87698c570b0c",
    "represent diamond.json --goal separate --seed 0": "3982194fd9b51454763ff6eb1e11ebea1fa29ff268909fff6ac489f4714ce23d",
    "represent diamond.json --goal separate --seed 5": "403b92f2b70ac4615eafcaf7007ff0046a7316cca74c9692471fecd31d1b2310",
    "check chain_c3.json --ea": "2be0031cb758d7a512d6efc4e287b35c0b2de1d21ea666c576021ca7bc7ac63b",
    "order chain_c3.json": "52737d9fa55b404a7c847c01485e1c9e6742f4021af015c89b08ff6b37161644",
    "states chain_c3.json --goal order --seed 0": "9907469214296cb6c17968ffd0fd15168574738c85434cd77efe19d8072f8a9f",
    "states chain_c3.json --goal order --seed 5": "28cb9386eefac8fc39909f84b7a569c5b5fb8840aeedaea352f9b975fde04ced",
    "states chain_c3.json --goal separate --seed 0": "b333f07f72f8395fed6cce9f648f7fca0ced1d04a8d2c2f389d2c24dabc1e14b",
    "states chain_c3.json --goal separate --seed 5": "d42e6c0310bacddd209ba78fa5a2c48415784d02e09b981687c767b4161fc52c",
    "represent chain_c3.json --goal order --seed 0": "1528d4d7e606ac67cfc422edd980a27a57f9a243a96c6e065e74adcb9c3e2921",
    "represent chain_c3.json --goal order --seed 5": "0a756dc83cf7dc2fad450efffac603efdb0de046056171c887d1da2d18e9db8e",
    "represent chain_c3.json --goal separate --seed 0": "622712b1762a1f7c418e19f1beb4b8c6bb0ded2e08e1400c55ef55eea97e8f8d",
    "represent chain_c3.json --goal separate --seed 5": "1941a858f929d521503873c6b2a079bf1c1d7964a3aab48c888d369b06e8bd62",
    "check cube8.json --ea": "d33de13b229d37249b12c16bce0d15b57931915200b7675299f492789303b627",
    "order cube8.json": "d4e2ef01a191a8b59633ec6e5fce07818d6ccbc6fb1e613366222d48f46e038a",
    "states cube8.json --goal order --seed 0": "cf70ea29a4c0bd9b2cdf46541170700dcf1f42ab663d1974a2ceb8a7ad67b959",
    "states cube8.json --goal order --seed 5": "87c427213c90704e1aa1641e5a0c39217fe392e56fe841c2ba7a89171fb8c273",
    "states cube8.json --goal separate --seed 0": "67d894b154f561c1455df7d523f99bef78d5390b8a97610243fce678ae2f05dd",
    "states cube8.json --goal separate --seed 5": "521a9c24671b49ddac2fb9744e166e6d3a895a5362bf4fa995431ad8437d30cc",
    "represent cube8.json --goal order --seed 0": "b0d03fe30eee6eb618430986468be9c6a0de74af2cc989a5ce3046c06c3a6d80",
    "represent cube8.json --goal order --seed 5": "8f2c5b7ede53ebe4cade82389381af172d80204aae72fbe7c294ab45c8fef7fd",
    "represent cube8.json --goal separate --seed 0": "aef2e4c3dc9904be5a92700a76ca9feb745f4ea632551179cad6a9115599f4ea",
    "represent cube8.json --goal separate --seed 5": "4474c1a053464f89259b82bc00d6263e48d8874607ab951a8a4b005546c92946",
    "check no_states.json": "3103b5c7ec904e2b7ef04ff787cf69d7b1998aee271edae7694ddcb0754d8d22",
    "order no_states.json": "15718e7df043cff220f7cb80cf4ebcb96a0de346b92da850d8efe431a8bc505f",
    "states no_states.json --goal order --seed 0": "e613bebcc1e7be4d2394ccf527eb47454173c0eeeee6bf8165936fbcb4b4d76f",
    "states no_states.json --goal order --seed 5": "2a7a642aa1d05adf14e1d05fb4aaf260b4724eb7f14e1bf6b80cb0e729b0e167",
    "states no_states.json --goal separate --seed 0": "8213695f021171098439dbeffe72f3adc3a17be3c963b0fc368413c4546791aa",
    "states no_states.json --goal separate --seed 5": "faca76a81715f5d7d2f33c475261e1c683d10ff0fee417fa353f3f2e419c067d",
    "represent no_states.json --goal order --seed 0": "1ff11a845ee39aedd9c0b58c6e41e425d01e37c8f6a9e218f8effd209bcd247e",
    "represent no_states.json --goal order --seed 5": "acf4bc1dd2cb7c5cddfc0f950057f4695cca173e49e321daa4a897337a0ea2fb",
    "represent no_states.json --goal separate --seed 0": "c870c268cf1de4f33cdd559c6fbf735aa24623f1bdba69f18c96e89bf5262d3f",
    "represent no_states.json --goal separate --seed 5": "2f740e40eded144e3ea3e1c014d24366e432537a8296d7895bfcdd97c457ca19",
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
    "states ea_no_complement.json --goal order --seed 0": "3edfc1437d2d6825e013600d5d7ef902259c97f25191c423afed4845327ba765",
    "states ea_no_complement.json --goal order --seed 5": "ef16f73daedd6d779adc6245cfefe1dff3f820664fe1067b7a6c97a8102776f3",
    "states ea_no_complement.json --goal separate --seed 0": "1800c784db3b8988a6344f1dc7394acc4f6e877f91ceb20fae3dbace642d33f6",
    "states ea_no_complement.json --goal separate --seed 5": "8a5150ffb3fc721c28292503b73da824cedcc3ff27777367bbfeec7c3f209cd6",
    "represent ea_no_complement.json --goal order --seed 0": "cf487a31b253814f66e9aed07b8d16e429520373d456f903c6a2bf41a4013ec3",
    "represent ea_no_complement.json --goal order --seed 5": "5c36404da60c082052a1597edad2dab0e0e048ae9bd108953bb405ea80373b34",
    "represent ea_no_complement.json --goal separate --seed 0": "ae1c2e004a5f6737e773f88e7ac5bee09193914386575835c84c308d5ca5841f",
    "represent ea_no_complement.json --goal separate --seed 5": "e2c02f055088443f1e92979e0513edf171f5da0f87f65b874beafe4445771c00",
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


def _antichain(atoms):
    """Zero and atoms atoms, with no sum of two nonzero elements."""
    n = atoms + 1
    return AlgebraTable(("0", *(f"a{k}" for k in range(atoms))), 0,
                        {pair: k for k in range(n) for pair in ((0, k), (k, 0))})


def _product(left, right):
    """Componentwise product: a sum is defined iff it is in both factors,
    and the unit is the pair of units when both factors have one."""
    width = right.n
    unit = None if None in (left.unit, right.unit) else left.unit * width + right.unit
    return AlgebraTable(tuple(f"{x}:{y}" for x in left.elements for y in right.elements),
                        left.zero * width + right.zero,
                        {(i * width + j, k * width + l): s * width + t
                         for (i, k), s in left.sums.items() for (j, l), t in right.sums.items()},
                        unit)


def _disguise(table, rng):
    """The same table with its elements in a shuffled index order."""
    order = list(range(table.n))
    rng.shuffle(order)
    place = {old: new for new, old in enumerate(order)}
    return AlgebraTable(tuple(table.elements[old] for old in order), place[table.zero],
                        {(place[i], place[j]): place[k] for (i, j), k in table.sums.items()},
                        None if table.unit is None else place[table.unit])


# Tables past the corpus, built here: the LP runs on up to 39 variables, and
# the last two pin the coverage masks on wide and on failing searches.
LARGE_TABLES = {
    "cube5.json": (lambda: _cube(5), 0),
    "chain40.json": (lambda: _chain(40), 0),
    "random24.json": (lambda: random_gea(random.Random(3), 24), 3),
    "antichain16.json": (lambda: _disguise(_antichain(16), random.Random(16)), 0),
    "c3c4_ns.json": (lambda: glued(_product(_chain(3), _chain(4)), corpus.load("no_states")), 3),
    "cube6.json": (lambda: _disguise(_cube(6), random.Random(6)), 0),
    "c4cubed.json": (lambda: _disguise(_product(_product(_chain(4), _chain(4)), _chain(4)),
                                       random.Random(43)), 0),
    "antichain24.json": (lambda: _disguise(_antichain(24), random.Random(24)), 0),
}

LARGE_DIGESTS = {
    "states cube5.json --goal order --seed 0": "93a4c86926b002b232ec7991e28c671f7d9ebae6a0301f74bf05b0c2bb98361e",
    "states cube5.json --goal separate --seed 0": "54e4271a1561e99fb73846d60a102e18d8b6a76e11eaf943d71b9f46670898bf",
    "represent cube5.json --goal order --seed 0": "ba298f4282fe04c6b1412d26ef425f1893b08214e4d730e9a06be425d06ee617",
    "represent cube5.json --goal separate --seed 0": "7b90b80cbbc5fc1aa14c01bbd6c43cfda6993bcde347cfe4110fcb3ba96c802e",
    "states chain40.json --goal order --seed 0": "463b869ea3305636ef1964e6711e6a53b33ad0a0d457d05c9dd999f61c716dae",
    "states chain40.json --goal separate --seed 0": "6d91af5f96aea8c2dc62bfbe1332dfc2c77cef594167578a474ce993e982d654",
    "represent chain40.json --goal order --seed 0": "293d949abb886539479fafdb156de6162897c2c70b863fc59250a7c0e6d8e7f6",
    "represent chain40.json --goal separate --seed 0": "b1e9f8da53f3fe73f724982ea1a95f5848ae29db932cf07be9ed5139122763c2",
    "states random24.json --goal order --seed 0": "c2cc5bfd4957a455601c88d46a5fcae750bf0e4a24a89d5d11b7f69709809164",
    "states random24.json --goal separate --seed 0": "c2f652404a6d7ad3e0e5881920a62283c3f974e62ed012bc5fc7c263e3110ab4",
    "represent random24.json --goal order --seed 0": "a4024cd6002d2e93583ba4a593ae5b278b70a14a4a91e7e8ca9c26667ef58b15",
    "represent random24.json --goal separate --seed 0": "2efee643c64db778d4463380fbfefb4757708e38216de8319d86eb75c37d184e",
    "states antichain16.json --goal order --seed 0": "a75a6b57363d5e4b1c312d09bfbda052bb1e69022556c8d173b6e1c22a6bef7b",
    "states antichain16.json --goal separate --seed 0": "c1c83f8c16ca35213423b0e6e088af1cddc8c798539b5affddfd21c8b3ff4e01",
    "represent antichain16.json --goal order --seed 0": "18c9fb08b36db716b407d862a3a1fa594796f1c79e62f4845ddd1de9f17c0300",
    "represent antichain16.json --goal separate --seed 0": "99cf3ccdba6364e2c0c0526cf26881ddd688640434653abf6e67b8e751ed7a37",
    "states c3c4_ns.json --goal order --seed 0": "0c90faca15336073f3da37a5d154755ddfcc5221260e5089f7e67071a3f6a42c",
    "states c3c4_ns.json --goal separate --seed 0": "2a4556654005d1e91a16cbd468071b6c0ac94e1244d0786a893a1095867c3825",
    "represent c3c4_ns.json --goal order --seed 0": "4f864f5a06c8aa7480f2957f2e9e1ef6dff514068c92518209973d66500ae211",
    "represent c3c4_ns.json --goal separate --seed 0": "59fef6311a20f60b0a2fde70d0a3cb597ce959aae51d6ef6798c149f53a721ba",
    "order cube6.json": "07cf04f1eee0cca6ce4e8f596a5bb0756a87efb18b656bc074bbf470efee70b4",
    "text order cube6.json": "e674c5640f618725a5ba9f0f785ded832e094b5ba1c181022c9138d4f46b0e75",
    "check cube6.json --ea": "2863b9569498d84165fea0d946c0d856b7e9f6772308d60f8d85f778615393e8",
    "order c4cubed.json": "e5b3d47c5663c7d436f1cc092844873d6f50474bf6d17dc8c9352c3a759bd42e",
    "text order c4cubed.json": "1f10a01d57228811c9e2d70ccdb9fab4b999d70d3fe5aeacba8e40edadf93568",
    "check c4cubed.json --ea": "4aab9bb37617e8aba5e95bac22334806341e4aebe4844da5cc3a3cb6b7152a7a",
    "states antichain24.json --goal order --seed 0": "79a400b63e1cb52d759cefda3abc9a62856ae125521ad2687b303d95daa86dc0",
    "states antichain24.json --goal separate --seed 0": "04e5f59aec9aaa6115c24d4e51da4653fa659dd1de752d63c1ee3d3d6e9967c3",
    "represent antichain24.json --goal order --seed 0": "bc83b110d06d89908ea1d648d9faed690a0e93aaa70f2cc68b54c0bafe184958",
    "represent antichain24.json --goal separate --seed 0": "1bacddd6162267179ca8c9298066ef27592ff6243270ffdb3ba97ad96f81374f",
}


@pytest.mark.parametrize("command", sorted(LARGE_DIGESTS))
def test_large_table_report_bytes_are_pinned(command, capsys, monkeypatch, tmp_path):
    words = command.split()
    argv = words[1:] if words[0] == "text" else [*words, "--json"]
    name = argv[1]
    build, code = LARGE_TABLES[name]
    write_table(build(), tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_DIGESTS[command]
