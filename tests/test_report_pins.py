"""Every pinned report: one row per command line, checked in-process by tier-1 and as a subprocess by a script.

A row holds the command line, the exit code, the decision modes the report
shows and the SHA-256 of its stdout.  The modes of a JSON report are read from
every entry and every matrix cell, parsed strictly (no NaN or Infinity); those
of a text report from its ``mode=`` tokens.

``test_pinned_report`` runs the ``tier-1`` rows through ``cli.main``, by
``conftest.cli_report``, which runs each command line once per session: the
report tests in ``test_cli.py`` read the same runs.  The script runs every
row, the ``ci`` rows too, each in a fresh process::

    PYTHONPATH=src python tests/test_report_pins.py

It prints one line per row whose report differs from its pin, with the new
exit code, digest and modes, and exits 1 if any row differs.  A change that
moves report bytes edits those rows, so the table's diff shows each moved
digest as one line.
"""

from __future__ import annotations

import hashlib
import re
import shlex
import subprocess
import sys
from typing import NamedTuple

import pytest

from pqncheck import cli

from conftest import cli_report, strict_json

TIER_1, CI = "tier-1", "ci"
SYMBOLIC = frozenset({"symbolic"})
EXACT_AND_SYMBOLIC = frozenset({"exact", "symbolic"})


class Pin(NamedTuple):
    args: str  # the command line after ``pqncheck``, ending in --format json or --format text
    code: int
    modes: frozenset | None
    tier: str
    digest: str


PINS = [
    # The toda-pqn benchmark commands: the closed chain's PqN check and the Toda deformation, at its seeds.
    # A text report's first line echoes the command and its settings, the seed and the couplings too, so no two
    # text rows share a digest.
    Pin("check --model closed-toda --n 3 --seed 11 --format json",
        0, SYMBOLIC, TIER_1, "25e463fb5d6cf1f65120bf77ef029a9371821aeaa99eefb006181b790d5319a3"),
    Pin("check --model closed-toda --n 3 --seed 11 --format text",
        0, SYMBOLIC, TIER_1, "60292db983b43cac18d2b0ec7fdabaee3e4144c89d94e64f5e8160bfa70acd9e"),
    Pin("check --model closed-toda --n 3 --seed 12 --format json",
        0, SYMBOLIC, TIER_1, "470507d4c9ff5594aa0ec591fc712b3eda92fc3525d8f29eea5365fad436c539"),
    Pin("check --model closed-toda --n 3 --seed 12 --format text",
        0, SYMBOLIC, TIER_1, "299e8da3e11872459cd7dbae37e0f16e19d67f6f10b0b57e2ba459c0459c5331"),
    Pin("check --model closed-toda --n 3 --seed 13 --format json",
        0, SYMBOLIC, TIER_1, "5055d65aa8c15dd54186c41a58b87c4339a24718546b526cb468f0edf9035e58"),
    Pin("check --model closed-toda --n 3 --seed 13 --format text",
        0, SYMBOLIC, TIER_1, "641a34e9e8477f18c01ae6d4d3cb29d596fa7cedea40df53bc57674ec77072b4"),
    Pin("check --model closed-toda --n 3 --seed 14 --format json",
        0, SYMBOLIC, TIER_1, "2afaf92556b87554c1713b485b347e2f277666ee94bcfa73cf0712f2a1928e1f"),
    Pin("check --model closed-toda --n 3 --seed 14 --format text",
        0, SYMBOLIC, TIER_1, "8da5899426fd655e538831d044cabf48524f78cf4470b767f1ed23b4f5b6d5fc"),
    Pin("check --model closed-toda --n 4 --seed 11 --format json",
        0, SYMBOLIC, TIER_1, "944e0c3d0a676fd2cc18370c36c51929ec0e88e3055e72167df86e8579e48cba"),
    Pin("check --model closed-toda --n 4 --seed 11 --format text",
        0, SYMBOLIC, TIER_1, "d5db6241115ed2b07c3fb4e826d6061dbd50fa5d94e4a162dd1a094336b9f496"),
    Pin("check --model closed-toda --n 4 --seed 12 --format json",
        0, SYMBOLIC, TIER_1, "75e0600d21d26cb64a8f81de01837b14546263734457c25b376f8198436b2cef"),
    Pin("check --model closed-toda --n 4 --seed 12 --format text",
        0, SYMBOLIC, TIER_1, "bdc0c6ac622ae6ffc3a8ed3d915d43ad9cd9d94381586db6c0d867a6e8e441a6"),
    Pin("check --model closed-toda --n 4 --seed 13 --format json",
        0, SYMBOLIC, TIER_1, "0ea17c231bd1c853b5627ff81cf60ae864696a2979dbeee1efddadbcb0d4d27a"),
    Pin("check --model closed-toda --n 4 --seed 13 --format text",
        0, SYMBOLIC, TIER_1, "8290e3e6ee468727849ab93f5935ba782ad665473b7c1a916933cea6cfdccb65"),
    Pin("check --model closed-toda --n 4 --seed 14 --format json",
        0, SYMBOLIC, TIER_1, "7f5f68ebb5baf3e6d08c03ce6fda3617c12138b282f466632dced83505ec3167"),
    Pin("check --model closed-toda --n 4 --seed 14 --format text",
        0, SYMBOLIC, TIER_1, "d3a80f0a8bee41c4bacd9ca63c192abf6bc4ae41964376aef900ec0dfe64163b"),
    Pin("deform --model canonical --omega toda --n 3 --seed 11 --format json",
        0, SYMBOLIC, TIER_1, "bfe423c99dd0198332b11a03240fb3225cfbebbdbce6f7c4eb9dada19b5d5639"),
    Pin("deform --model canonical --omega toda --n 3 --seed 11 --format text",
        0, SYMBOLIC, TIER_1, "cad5ecfb9fe60960c627981fc6b08e3be2c306dc1e31bb6353eb5e218d8b97ed"),
    Pin("deform --model canonical --omega toda --n 3 --seed 12 --format json",
        0, SYMBOLIC, TIER_1, "9c5c74bdb607d5ced0d36af5d73e98503ae943a9c03eff0c9f2599293bab0ccc"),
    Pin("deform --model canonical --omega toda --n 3 --seed 12 --format text",
        0, SYMBOLIC, TIER_1, "bc7aa994c617e49e16d23188f5a7fd69b5a251d7e0e43ebd6ff5b0d76d38d3af"),
    Pin("deform --model canonical --omega toda --n 3 --seed 13 --format json",
        0, SYMBOLIC, TIER_1, "7bff8d0e566c7bdb5511cf7593b976d2733a1deb37498abf149d5602afd38445"),
    Pin("deform --model canonical --omega toda --n 3 --seed 13 --format text",
        0, SYMBOLIC, TIER_1, "0962301d9bc554e697bf5927b67e9b88eb503f9d1cb9d9a80f3fba22c24b6335"),
    Pin("deform --model canonical --omega toda --n 3 --seed 14 --format json",
        0, SYMBOLIC, TIER_1, "6774b23a382af7c629b1251b12b2f8c1db8b765fbc013a4ceb47e0c4acad21fc"),
    Pin("deform --model canonical --omega toda --n 3 --seed 14 --format text",
        0, SYMBOLIC, TIER_1, "f43e0a3346cbd3869e23db426de13734d9ad3bc43e9e25f7e0ad6228ea291e14"),

    # The sampled-scan benchmark commands.
    Pin("involutivity --model calogero --n 3 --kmax 3 --samples 10000 --seed 0 --format json",
        0, EXACT_AND_SYMBOLIC, TIER_1, "c0f54eb63a8b69ecc5ae50a390ac48e75706b5bf8bc6638a44848d277b4596d5"),
    Pin("involutivity --model calogero --n 3 --kmax 3 --samples 10000 --seed 0 --format text",
        0, EXACT_AND_SYMBOLIC, TIER_1, "91962373dff6b5a9d9c56159c6ebb842250b96d5aec911affc42d94e4f14089f"),
    Pin("involutivity --model calogero --n 3 --kmax 3 --samples 10000 --seed 1 --format json",
        0, EXACT_AND_SYMBOLIC, TIER_1, "7d3e2c6d346f16fa6169b15f8d265e094cd22537f1d2105db66b53e343173f2c"),
    Pin("involutivity --model calogero --n 3 --kmax 3 --samples 10000 --seed 1 --format text",
        0, EXACT_AND_SYMBOLIC, TIER_1, "ebaf84e12eedcd1fb3b124af906c384cf1171a2d9b2d24bfbb6079fc02564367"),
    Pin("involutivity --model calogero --n 3 --kmax 3 --samples 10000 --seed 7 --format json",
        0, EXACT_AND_SYMBOLIC, TIER_1, "9ed2d09f2b0994109f7e6ee1b9b03cfa93f9309afd69fbce4980416cfa4625d6"),
    Pin("involutivity --model calogero --n 3 --kmax 3 --samples 10000 --seed 7 --format text",
        0, EXACT_AND_SYMBOLIC, TIER_1, "2fe9cde8b575ea9b47f5da0c0e3bf625038b7bc33cfdea2032489c0557eaa9fc"),
    Pin("involutivity --model calogero --n 3 --kmax 3 --samples 10000 --seed 51 --format json",
        0, EXACT_AND_SYMBOLIC, TIER_1, "2f2427c00c28d9a9a382527e4965730cf5737257ddc41a831f14fef0c3c60ba6"),
    Pin("involutivity --model calogero --n 3 --kmax 3 --samples 10000 --seed 51 --format text",
        0, EXACT_AND_SYMBOLIC, TIER_1, "d0857f8acece5478b9831ae64570e414bff6d3ca43f7323d357c6ba85f03669d"),

    # Each model's check at small sizes, and the open chain's PN report at n = 8.
    Pin("check --model canonical --n 2 --format json",
        0, SYMBOLIC, TIER_1, "1b365fb0526b9302f0fce03689e0fd01bd1cc47c1680022d1093d89d2363c206"),
    Pin("check --model canonical --n 2 --format text",
        0, SYMBOLIC, TIER_1, "944eb22f4511400a437170ddfe6b54de9003e6f68c9b4da523a5b55434179131"),
    Pin("check --model canonical --n 3 --format json",
        0, SYMBOLIC, TIER_1, "ecb846cfbba2d9abadde07a363a6738da731942a71b4746aa9907e0f7492d8e9"),
    Pin("check --model canonical --n 3 --format text",
        0, SYMBOLIC, TIER_1, "ba2da4539e2ba2402c1a6ed1ad8f8b0a66b7703342f163e02d916d3745efe3cd"),
    Pin("check --model canonical --n 4 --format json",
        0, SYMBOLIC, TIER_1, "7784d5e382b70e1857c8869e31f3bfe5ffd88ccbb2b50b33d244f2b13225c712"),
    Pin("check --model canonical --n 4 --format text",
        0, SYMBOLIC, TIER_1, "8925ade0872df58e1b88313a9fc91b2a8d0a2bbe233b617b25d4f23f7ba4e710"),
    Pin("check --model open-toda --n 2 --format json",
        0, SYMBOLIC, TIER_1, "d264864a7cfe3977bb5d06e750c7f9414f9a8fae77a2d42b36c30522b12b6a7d"),
    Pin("check --model open-toda --n 2 --format text",
        0, SYMBOLIC, TIER_1, "5e8bf19f2a7df862167d20f97fc5908a565e093c51f2e0c919b5a18bd9623be5"),
    Pin("check --model open-toda --n 3 --format json",
        0, SYMBOLIC, TIER_1, "aa0edc57fe04298fced7e3fcbdb3f50e19dd337e12e2df6d167aecf95043f8f0"),
    Pin("check --model open-toda --n 3 --format text",
        0, SYMBOLIC, TIER_1, "14c52631ad31ace64cade8b55541c61baec0eb3ac5715cb0bf938dc53707bc4e"),
    Pin("check --model open-toda --n 4 --format json",
        0, SYMBOLIC, TIER_1, "483caf8cb910b2b950f0818711a6c7534498ad4dc11ff224c81014e897107a3e"),
    Pin("check --model open-toda --n 4 --format text",
        0, SYMBOLIC, TIER_1, "c4e7ed59a93277f1577731343e7ccbcb88e77ed0ae9597b9eb4756aa77bfca2f"),
    Pin("check --model closed-toda --n 2 --format json",
        0, SYMBOLIC, TIER_1, "3c1458afa64686b080223a2478992ad6de931422caf3c9ea126b538a45a41a8b"),
    Pin("check --model closed-toda --n 2 --format text",
        0, SYMBOLIC, TIER_1, "da4eda06d4201a8f47959605c590060737cfd95372b693579f968c8949bf4ea5"),
    Pin("check --model closed-toda --n 3 --format json",
        0, SYMBOLIC, TIER_1, "bf6b4aeebbc2368e20b0ad51c3833a08a4b7623038f50c09744eefebbe47cde2"),
    Pin("check --model closed-toda --n 3 --format text",
        0, SYMBOLIC, TIER_1, "23c15c009cab2922e1849ed4ca9749f2dd7ae37c49fd1a2d47d09c6386d2e3ee"),
    Pin("check --model closed-toda --n 4 --format json",
        0, SYMBOLIC, TIER_1, "47890dd6f36481c96034f54876282e3bbc7a2236bafe21a3416a2c5f1bc99266"),
    Pin("check --model closed-toda --n 4 --format text",
        0, SYMBOLIC, TIER_1, "bf0e8ab1b00890b94a583fff57b745a9c0ace196b90691ff07b95d4d37edad6c"),
    Pin("check --model calogero --n 2 --format json",
        0, SYMBOLIC, TIER_1, "03e7c1d98b86b3bdb8f8a17bb76a083971180964a475a75ea9a729d43c2ae32a"),
    Pin("check --model calogero --n 2 --format text",
        0, SYMBOLIC, TIER_1, "c577a96b5a18f6946a0dadacf6fbbb6666450a78bf0e664d1c14c17735f4e2ee"),
    Pin("check --model calogero --n 3 --format json",
        0, SYMBOLIC, TIER_1, "e18d712b20c5f3c30e48ae5dc23fe941c414d967c2a14d2c3a0b8a55f1f36c45"),
    Pin("check --model calogero --n 3 --format text",
        0, SYMBOLIC, TIER_1, "47309d92315aebb702a7a4165bdebf48f15fd02620f6f23340c5e839d60aeab2"),
    Pin("check --model calogero --n 4 --format json",
        0, SYMBOLIC, TIER_1, "c32d69e5d436a784d6f6a40651cf20d8350f084dbddf11ff9b59f6634edad201"),
    Pin("check --model calogero --n 4 --format text",
        0, SYMBOLIC, TIER_1, "a7c01958ceb8d0490f8875d8b967c5e5a1b630b3e9669dd33b061752c4f2fe4d"),
    # The torsion identity on fields with sum bases (the pair terms (q_i - q_j)^-2) beyond n = 4.
    Pin("check --model calogero --n 8 --format json",
        0, SYMBOLIC, TIER_1, "58a86b7454e8bd32d6b56f14ed2c94e586df61170e2fbfa10d98516053aac535"),
    Pin("check --model calogero --n 8 --format text",
        0, SYMBOLIC, TIER_1, "ed0e02611d481947931addecf9df0250a7ac88beb11fb60f4c29fa7f0501a5f1"),
    Pin("check --model open-toda --n 8 --format json",
        0, SYMBOLIC, TIER_1, "1e327585d48101de2a1f1ebd9b2e5fa7a086cc2579a4109e495dae510ff0a829"),
    Pin("check --model open-toda --n 8 --format text",
        0, SYMBOLIC, TIER_1, "7079416f24a6427705da2b63a71fec19a825192fd1788efca9a1a0e453ab11e9"),

    # Closed Toda with other couplings, and a claim that fails (exit 1).
    Pin("check --model closed-toda --n 3 --f 1,1,0 --format json",
        0, SYMBOLIC, TIER_1, "16c80a69e93b5ffe81f4129853e83f4e51e7692cc70d0b0fb1c2ce1882bf2bef"),
    Pin("check --model closed-toda --n 3 --f 1,1,0 --format text",
        0, SYMBOLIC, TIER_1, "c941d358bc1451d36b32f5f909728cd92e57a3d4add8226bb8ddf4c6e405815d"),
    Pin("check --model closed-toda --n 3 --f 1,2,1/2 --format json",
        0, SYMBOLIC, TIER_1, "27355418a9ea146e4097e7980ed5999ef631a50e8dc2534d0c47d9441d72e7a7"),
    Pin("check --model closed-toda --n 3 --f 1,2,1/2 --format text",
        0, SYMBOLIC, TIER_1, "872c374a791ac5fe470d60f59cbda7c553c1cdb11b677c5ab2f36056ebf47566"),
    Pin("check --model closed-toda --n 3 --expect pn --format json",
        1, SYMBOLIC, TIER_1, "d3afd5aced9bd9accada5b6a16616a8f1cfd3642575d2201a00fe228280f6208"),
    Pin("check --model closed-toda --n 3 --expect pn --format text",
        1, SYMBOLIC, TIER_1, "f6e44040789d199ad0bd21aaf3346ad097c27bc9b42f7ffe226df84ee2d72930"),

    # Two-particle drifts.  The first two fail (exit 1), and the residual of their failing
    # dN-squared-is-phi-bracket entry comes from a float evaluation of a field with an exp, so the
    # bytes of these four rows assume the platform's libm.
    Pin("check --model two-particle --v '(* p1 q2)' --format json",
        1, EXACT_AND_SYMBOLIC, TIER_1, "479cf2e8d91e4ccd67f3b09853495dadcddf73f6c69d2ae5298c1696cb78e60c"),
    Pin("check --model two-particle --v '(* p1 q2)' --format text",
        1, EXACT_AND_SYMBOLIC, TIER_1, "d866e0c1ca577433922aed123aa0e9f5ad0e9e6197d497e7d5c664bdaddc5088"),
    Pin("check --model two-particle --v '(+ (* q1 q1 q2) (exp (+ q1 p1)))' --format json",
        1, EXACT_AND_SYMBOLIC, TIER_1, "db2c12ac7d87374041875eb0c900eb72b51e347e339f55155095a31ccd51e7a5"),
    Pin("check --model two-particle --v '(+ (* q1 q1 q2) (exp (+ q1 p1)))' --format text",
        1, EXACT_AND_SYMBOLIC, TIER_1, "192580ed6177733373bf30e5b978237fa52ad547ecde57729f55d0d2020d01e5"),

    # Exp that overflows a float, one exp monomial, and exp and inverse powers in a sum base.
    Pin("check --model two-particle --v '(exp (* 400 q1))' --format json",
        0, SYMBOLIC, TIER_1, "50dd5ce01ee2c708f7689f8e3f3149895fa7f08c2bbd6c21e0bd8aa69673f33f"),
    Pin("check --model two-particle --v '(exp (* 400 q1))' --format text",
        0, SYMBOLIC, TIER_1, "dcf43034d6064be5bb7f8e53e4cfb66f0d526c8e2f5f17bffc27cf847b94a32a"),
    Pin("check --model two-particle --v '(exp (* 100000 q1))' --format json",
        0, SYMBOLIC, TIER_1, "34b2a227fc1acd9da1ada955d8112b6e67f51613cc06c458e1b92e6f5c34141f"),
    Pin("check --model two-particle --v '(exp (* 100000 q1))' --format text",
        0, SYMBOLIC, TIER_1, "3f20521d24396d1a6bb476e76cabcd8e3bf9845de65d98c6dff2597e4728b29b"),
    Pin("check --model two-particle --v '(* q1 q2)' --format json",
        0, SYMBOLIC, TIER_1, "9f91116b8a49b4cf4bda25f6301bbf523b8c2de2412d315be95447270ac45abf"),
    Pin("check --model two-particle --v '(* q1 q2)' --format text",
        0, SYMBOLIC, TIER_1, "3311f89de73295446834219958593ab70e9db254205fb8188d5d80c39d5cd765"),
    Pin("check --model two-particle --v '(^ (+ (exp q1) 1) -1)' --format json",
        0, SYMBOLIC, TIER_1, "02fa62bc239fcdb8ee0c290ae01be5a552e4d6436419f7db4e3953dec2d8e8fc"),
    Pin("check --model two-particle --v '(^ (+ (exp q1) 1) -1)' --format text",
        0, SYMBOLIC, TIER_1, "b99ea4c1a98065c665337e4f067fba9e6d4ac2f8f65df1d00f2ecb0e78badcfc"),
    Pin("check --model two-particle --v '(+ (exp (+ q1 (* -1 q2))) (^ (+ q1 (* -1 q2)) -2))' --format json",
        0, SYMBOLIC, TIER_1, "d35e7ead8c6b9edc410faebc2575743b88d8f031948ffac4910108794a073e0d"),
    Pin("check --model two-particle --v '(+ (exp (+ q1 (* -1 q2))) (^ (+ q1 (* -1 q2)) -2))' --format text",
        0, SYMBOLIC, TIER_1, "63b54ea0832cb056c7754b29c6218f34843450327a098e1ff85584ca53a492d3"),

    # Each deformation base with each named 2-form.
    Pin("deform --model canonical --omega zero --n 3 --format json",
        0, SYMBOLIC, TIER_1, "58c409730efbf35221f9091eeadca4cde3875ac673e98fa0d1d0cb7cec01bced"),
    Pin("deform --model canonical --omega zero --n 3 --format text",
        0, SYMBOLIC, TIER_1, "622551baa7e321acbcfd63eb6a2f4aa6cb729523405cb888059a74082e69fa60"),
    Pin("deform --model canonical --omega omega-c --n 3 --format json",
        0, SYMBOLIC, TIER_1, "7b140d00f89d781bf5ff33e66c5f9b62ef0fd94a10d44d6f03ba876464c2bb3c"),
    Pin("deform --model canonical --omega omega-c --n 3 --format text",
        0, SYMBOLIC, TIER_1, "ba56495a2d70a8b406abbdf14b65628ae73d54ef71f3453bb5c59a924656cf2e"),
    Pin("deform --model canonical --omega omega-hat --n 3 --format json",
        0, SYMBOLIC, TIER_1, "1f5d81db253edf7eb4d714c5e6638d07a6ab797ebe1b757f38b5dce8df7b0d62"),
    Pin("deform --model canonical --omega omega-hat --n 3 --format text",
        0, SYMBOLIC, TIER_1, "439c950f56752048ca782497643507fadc1f02b9ce94ded7e7a1fc725b5521a7"),
    Pin("deform --model canonical --omega toda --n 3 --format json",
        0, SYMBOLIC, TIER_1, "57697796295b5530503bb6d7e725b331be9a763ed97cb18b9cc4a694b1752d7d"),
    Pin("deform --model canonical --omega toda --n 3 --format text",
        0, SYMBOLIC, TIER_1, "1568fb4e60ce4a1ba1fbc651cb3e464f545d95d8b859bf8e837a55a6e6377b42"),
    Pin("deform --model canonical --omega closed-toda --n 3 --format json",
        0, SYMBOLIC, TIER_1, "0b4b842334853249c912405d13b8ec9288d4363ef30a118596a66ad9c9aac1d9"),
    Pin("deform --model canonical --omega closed-toda --n 3 --format text",
        0, SYMBOLIC, TIER_1, "e5c893672218acdb1484658b3c1eee2bca867600d07c24714538ea00c4eb55fc"),
    Pin("deform --model canonical --omega open-toda --n 3 --format json",
        0, SYMBOLIC, TIER_1, "4930614dd550bf5ae82679bb32745e8b828c967cd6a05c7edfccdabc4f3ceb23"),
    Pin("deform --model canonical --omega open-toda --n 3 --format text",
        0, SYMBOLIC, TIER_1, "1c62172364eddd9310ef7191541e438ae798c4c728cf4847ae93d3714d171b37"),
    Pin("deform --model identity --omega zero --n 3 --format json",
        0, SYMBOLIC, TIER_1, "b301ba1aaa1017c37371fb5830b288d2989d4faffab123db9026f406d3411e65"),
    Pin("deform --model identity --omega zero --n 3 --format text",
        0, SYMBOLIC, TIER_1, "1b107c2d6281dd6e8ef373dd52a6050414b6b4f886b5b2ebb613a4d66a77b532"),
    Pin("deform --model identity --omega omega-c --n 3 --format json",
        0, SYMBOLIC, TIER_1, "a71305a75815bb87cc015f0965aede74236de1d00522c1538527ab1b78f25cf3"),
    Pin("deform --model identity --omega omega-c --n 3 --format text",
        0, SYMBOLIC, TIER_1, "9a746a92703b97d461f0220b6d39169434e402a0ea75bb7b3da8cb237594d216"),
    Pin("deform --model identity --omega omega-hat --n 3 --format json",
        0, SYMBOLIC, TIER_1, "e23b03ee082a133a7042acb7f1a8ffda9acf63e584ef57fe93ec78d252180d83"),
    Pin("deform --model identity --omega omega-hat --n 3 --format text",
        0, SYMBOLIC, TIER_1, "dc8f5caae2816f08e90ee1ab79b2e92109b27c453944ebcee7a05a4f8d49dd42"),
    Pin("deform --model identity --omega toda --n 3 --format json",
        0, SYMBOLIC, TIER_1, "6409e3e46ad06ff4ca683849d91194d3acbfbc841d969abc4f271a389390d0e3"),
    Pin("deform --model identity --omega toda --n 3 --format text",
        0, SYMBOLIC, TIER_1, "0734652d5553d84c33977a0e2e79079b911bf1433aab784eaee7772afb41e3a6"),
    Pin("deform --model identity --omega closed-toda --n 3 --format json",
        0, SYMBOLIC, TIER_1, "865a66d5ac3f7de33aabed3f27ccb8dd97de8eea7d2d3157c1d4681a03e615b9"),
    Pin("deform --model identity --omega closed-toda --n 3 --format text",
        0, SYMBOLIC, TIER_1, "6c29f071c55cf3e318978ac2d7f8eca935a3cc9a566b29995f0ed309290ded86"),
    Pin("deform --model identity --omega open-toda --n 3 --format json",
        0, SYMBOLIC, TIER_1, "47fc0418f50441d8b94f61eb8c9e72b5f012aa9f79f48c7bf96e64c3d0c025e9"),
    Pin("deform --model identity --omega open-toda --n 3 --format text",
        0, SYMBOLIC, TIER_1, "af021ba7975ae9834f95c82a0efdce2fd68e051750dbf54835661cd812efda63"),
    Pin("deform --model open-toda --omega zero --n 3 --format json",
        0, SYMBOLIC, TIER_1, "5fe23fd893ac83d1b28d5f6e89a4a14912d75dc9b8f8ba0178f116a7a5c7d963"),
    Pin("deform --model open-toda --omega zero --n 3 --format text",
        0, SYMBOLIC, TIER_1, "d7a7f5a64b27c33153f426ea7edc5fa91b551fcdba2f2ed84386e7c726051d30"),
    Pin("deform --model open-toda --omega omega-c --n 3 --format json",
        0, SYMBOLIC, TIER_1, "04945416d59786ce90a2f97bef329a0b284e705928b1851d3136e38c6ea808d5"),
    Pin("deform --model open-toda --omega omega-c --n 3 --format text",
        0, SYMBOLIC, TIER_1, "9ad4b100234cf3e8488bd51f2d7c5452b66172744f84fa773d78af1093cb275a"),
    Pin("deform --model open-toda --omega omega-hat --n 3 --format json",
        0, SYMBOLIC, TIER_1, "ce21ab9dd8906f70948e1ae667445c0ef8b6d4dd196e12c92de4b285c77c64e6"),
    Pin("deform --model open-toda --omega omega-hat --n 3 --format text",
        0, SYMBOLIC, TIER_1, "1444bd2bc9f930861d1b89e8615eff9dea74fd6045202b8fff0c6b9a8833d775"),
    Pin("deform --model open-toda --omega toda --n 3 --format json",
        0, SYMBOLIC, TIER_1, "0ff326609294fbecd104975862367b20bc0dd839296e7b677a8d9009cf01bdcc"),
    Pin("deform --model open-toda --omega toda --n 3 --format text",
        0, SYMBOLIC, TIER_1, "fcf4485c01a73d4d71973ccd34f49f822152215c3a5a55c85d1c7684c0755fcb"),
    Pin("deform --model open-toda --omega closed-toda --n 3 --format json",
        0, SYMBOLIC, TIER_1, "674181170ea4eecbe5ac1f01ba229f0f7cde88dcd0ab09e55a34dce12a2ba778"),
    Pin("deform --model open-toda --omega closed-toda --n 3 --format text",
        0, SYMBOLIC, TIER_1, "1a59a0cbd4b1c9a2d0be99c1ec0fb8f53ad65d154e6e711343cf44d76b2b9f45"),
    Pin("deform --model open-toda --omega open-toda --n 3 --format json",
        0, SYMBOLIC, TIER_1, "903c5bb3f967021c2606e67d300b89ba2c3c5e9a8bfbc0d05afe3c52aa238d63"),
    Pin("deform --model open-toda --omega open-toda --n 3 --format text",
        0, SYMBOLIC, TIER_1, "fcc49774c221787a9453baa3b62dca7fbe208bc330456ce62706001138112d08"),

    # The involutivity tables.
    Pin("involutivity --model calogero --n 3 --kmax 3 --format json",
        0, EXACT_AND_SYMBOLIC, TIER_1, "08c2154aa23a34cf4dc944d27784d6bc08930cfa17d5981fb4927e4d47f83a91"),
    Pin("involutivity --model calogero --n 3 --kmax 3 --format text",
        0, EXACT_AND_SYMBOLIC, TIER_1, "b546d444785010511daa920fd096b731c7d03bc91330f55cd3e64be2b7356208"),
    Pin("involutivity --model calogero --n 4 --kmax 4 --format json",
        0, EXACT_AND_SYMBOLIC, TIER_1, "c0a5cf042c28fd9662c0e59a9f89f09369626f6274da29afe1415a986e4f87ef"),
    Pin("involutivity --model calogero --n 4 --kmax 4 --format text",
        0, EXACT_AND_SYMBOLIC, TIER_1, "9aefe7818192a73a4e380c04b07433388af12cd30a796dd4ad627bc6d75cb594"),
    Pin("involutivity --model calogero --n 5 --kmax 5 --format json",
        0, EXACT_AND_SYMBOLIC, TIER_1, "7d8bb6575a7d3f9380abaa53f0b5e5311bbeba09005b3d32918d960e17a8b755"),
    Pin("involutivity --model calogero --n 5 --kmax 5 --format text",
        0, EXACT_AND_SYMBOLIC, TIER_1, "15bd734b884ccda458dd65e9ce8af6dfd9bbec6f5d925974258fdc2c4d3ce54d"),
    Pin("involutivity --model closed-toda --n 3 --kmax 3 --format json",
        0, SYMBOLIC, TIER_1, "e054e4a1c532abe88723ce28bd0c97aa37bddbca0fb46722e896c35f193a2a63"),
    Pin("involutivity --model closed-toda --n 3 --kmax 3 --format text",
        0, SYMBOLIC, TIER_1, "63f30dc0053e835a033d567dbf8a4d1c8a4a14152e7d1370e695ed087a533c28"),
    Pin("involutivity --model closed-toda --n 6 --kmax 6 --format json",
        0, SYMBOLIC, TIER_1, "07d5746d4bb76212969f3858ad4c455119410b432145ac4053ada80eb695c366"),
    Pin("involutivity --model closed-toda --n 6 --kmax 6 --format text",
        0, SYMBOLIC, TIER_1, "ddcdbc3d15e18715e9595dcefae4696ed84ba8d10cc124df1481f32d87fbcc06"),
    Pin("involutivity --model open-toda --n 4 --kmax 4 --format json",
        0, SYMBOLIC, TIER_1, "c7e951101b22e311114aa9f0b7b2926393ce9f75eaab743f3a717acf065fa112"),
    Pin("involutivity --model open-toda --n 4 --kmax 4 --format text",
        0, SYMBOLIC, TIER_1, "0c31825c0730eae88aba711e7e9ba1c849750d0af01cc3d0d9f75847709d5fae"),
    Pin("involutivity --model two-particle --v '(* q1 q2)' --kmax 2 --format json",
        0, EXACT_AND_SYMBOLIC, TIER_1, "31836dd6d6f9dc16ef10d63682f44291d3f8219400e9b382fbe4c57ce94af292"),
    Pin("involutivity --model two-particle --v '(* q1 q2)' --kmax 2 --format text",
        0, EXACT_AND_SYMBOLIC, TIER_1, "abc4413a810f9dc958d53018d22197479d1777aff0d014db7e599a6b840c9078"),

    # Torsion and the compatibility concomitant over 32 coordinates, and a pair-model deformation.
    Pin("check --model closed-toda --n 16 --format json",
        0, SYMBOLIC, TIER_1, "0169fb0873fe8058b49d0b0bb0eef498b25e029778f18a716153c26754737021"),
    Pin("deform --model canonical --omega closed-toda --n 16 --format json",
        0, SYMBOLIC, TIER_1, "45eae96eda81421debe4b5830a2aa041ac4695a302ab58c468a62728594eb8f9"),
    Pin("check --model open-toda --n 16 --format json",
        0, SYMBOLIC, TIER_1, "ce431bc7280bc150cc7e79878f2f0315e89a8fe5c39285ab4fa5de2ef37f5273"),
    Pin("deform --model open-toda --omega omega-hat --n 4 --format json",
        0, SYMBOLIC, TIER_1, "000fef0fce0b8e472e950f0e5dacb4435156634e1c17b871a2a9730c294d8359"),

    # The 12 largest reports, about 68 s together as subprocesses on 2 vCPUs, of which deform at n = 64
    # takes about 45 s and check at closed and open Toda n = 128 about 5 s each.  Every Toda entry and
    # cell is symbolic.
    Pin("involutivity --model calogero --n 6 --kmax 6 --format json",
        0, EXACT_AND_SYMBOLIC, CI, "09a8ea4093a8a61c8b48727987f7a7cca1be9eb84f2dc210cb94534a56361966"),
    Pin("involutivity --model closed-toda --n 8 --kmax 8 --format json",
        0, SYMBOLIC, CI, "5c94d1161edf82b91ec2cf726332add76ffd8a6b89f6e0d7ade4e7c41132621b"),
    Pin("involutivity --model open-toda --n 8 --kmax 8 --format json",
        0, SYMBOLIC, CI, "dddbee726731a9615308d642d8c14e90969b41c51a49e45e75da060f0b2759f4"),
    # The torsion and compatibility entries on sum-base fields, beyond the tier-1 Calogero n = 8 rows.
    Pin("check --model calogero --n 16 --format json",
        0, SYMBOLIC, CI, "7bfdfe3b20526b84ba333cfd88ebc6f2d7387241404cdc57c5bea074c84b7069"),
    Pin("check --model closed-toda --n 32 --format json",
        0, SYMBOLIC, CI, "4f317ec7bf3afb03c784eb830b05ebc62c5c79ce5bf992b42d9160ccff8dd520"),
    Pin("deform --model canonical --omega closed-toda --n 32 --format json",
        0, SYMBOLIC, CI, "70cd3ca13b71cc75ee3e5dfdf24444c11ec7d936de7d1db664a56ba3b1082120"),
    Pin("check --model open-toda --n 32 --format json",
        0, SYMBOLIC, CI, "b6e498c4643eb1bcd40780fef834592426cbba495e115e38e79a21a963e58731"),
    Pin("check --model closed-toda --n 64 --format json",
        0, SYMBOLIC, CI, "36e995dbb7ba3230103469a2f0ac039d6a029bdd2c180ab90b082de823b93d7c"),
    Pin("check --model open-toda --n 64 --format json",
        0, SYMBOLIC, CI, "385b8bf04e04fe141698945720897a29a7134aa418bf4828e233e018a9e81a5c"),
    Pin("deform --model canonical --omega closed-toda --n 64 --format json",
        0, SYMBOLIC, CI, "f88e26fa349e474aae5549272d248886ba987b0552d04bf26e28fda010f7cf45"),
    Pin("check --model closed-toda --n 128 --format json",
        0, SYMBOLIC, CI, "c9118cbd9e6c46a39bcf44209d0ecb6d6f848c893d9f84d9590d881363f55a38"),
    Pin("check --model open-toda --n 128 --format json",
        0, SYMBOLIC, CI, "35e768bc7474d35afe90a0f640e157365a3e65bad44be429e6f46c979b0beacf"),
]


def report_modes(args: str, out: bytes) -> frozenset | None:
    """The decision modes a report shows; None for a JSON report that does not parse strictly."""
    text = out.decode("utf-8")
    if args.endswith("--format text"):
        return frozenset(re.findall(r"\bmode=(\S+)", text))
    try:
        report = strict_json(text)
    except ValueError:
        return None
    cells = report.get("matrix", {}).get("cells", {}).values()
    return frozenset(record["mode"] for record in [*report["entries"], *cells])


def observed(pin: Pin, code: int, out: bytes) -> Pin:
    """The row that a run exiting with ``code`` and printing ``out`` would pin."""
    return pin._replace(code=code, modes=report_modes(pin.args, out), digest=hashlib.sha256(out).hexdigest())


@pytest.mark.parametrize("pin", [pytest.param(pin, id=pin.args) for pin in PINS if pin.tier == TIER_1])
def test_pinned_report(pin):
    code, out = cli_report(pin.args)
    assert observed(pin, code, out.encode("utf-8")) == pin


TEXT_PINS = [pin for pin in PINS if pin.args.endswith("--format text")]


@pytest.mark.parametrize("pin", [pytest.param(pin, id=pin.args) for pin in TEXT_PINS])
def test_text_report_renders_its_json_twin(pin):
    """A text report is its JSON twin's payload, rendered; only the echoed format differs."""
    twin = pin.args.removesuffix("--format text") + "--format json"
    assert twin in {other.args for other in PINS}
    payload = strict_json(cli_report(twin)[1])
    if "format" in payload["config"]:
        payload["config"]["format"] = "text"
    assert cli._text(payload) == cli_report(pin.args)[1]


def run_every_pin() -> int:
    moved = 0
    for pin in PINS:
        run = subprocess.run([sys.executable, "-m", "pqncheck.cli", *shlex.split(pin.args)], capture_output=True)
        now = observed(pin, run.returncode, run.stdout)
        if now != pin:
            moved += 1
            modes = "unreadable" if now.modes is None else " ".join(sorted(now.modes))
            print(f"{pin.args}: exit {now.code}, sha256 {now.digest}, modes {modes}", flush=True)
    if moved:
        return 1
    print(f"all {len(PINS)} pinned reports match")
    return 0


if __name__ == "__main__":
    sys.exit(run_every_pin())
