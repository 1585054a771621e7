"""The fixed render specs pinned by the golden SVG files."""

from tubecalc.arcs import Tube
from tubecalc.render import RenderSpec
from tubecalc.type_a import AArc


def golden_specs():
    t14 = Tube(14)
    annulus = RenderSpec(
        "annulus",
        14,
        tuple((t14.prufer(i), "prufer") for i in (0, 6, 10, 13))
        + ((t14.finite(0, 6), "summand"), (t14.finite(1, 3), "summand")),
    )
    t3 = Tube(3)
    cover = RenderSpec(
        "cover",
        3,
        ((t3.finite(0, 4), "summand"), (t3.prufer(1), "prufer"), (t3.adic(2), "adic")),
    )
    segment = RenderSpec(
        "segment",
        4,
        ((AArc(0, 5), "summand"), (AArc(0, 2), "torsion"), (AArc(2, 4), "free")),
    )
    # adic spirals and a finite arc that winds past n in annulus mode
    t5 = Tube(5)
    winding = RenderSpec(
        "annulus",
        5,
        ((t5.adic(0), "adic"), (t5.adic(3), "adic"), (t5.finite(1, 12), "summand")),
    )
    # spans >= 21: the bump rises above the base line and y crosses 0
    tall = RenderSpec(
        "cover",
        3,
        ((t3.finite(0, 22), "summand"), (t3.finite(2, 26), "free")),
    )
    return {
        "annulus_n14.svg": annulus,
        "annulus_n5_winding.svg": winding,
        "cover_n3.svg": cover,
        "cover_n3_tall.svg": tall,
        "segment_m4.svg": segment,
    }
