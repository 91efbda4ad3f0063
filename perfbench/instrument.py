"""Layer spans for the traced run, and the per-layer metrics read off them.

Each public function is wrapped where its caller looks it up, so nothing in
the library changes: the benchmark calls ``document.parse``,
``zigzag.is_z_knotted`` and so on through their modules, the CLI looks up
``parse``, ``serialize`` and ``shred`` in ``trizig.cli``, and shredding
looks up ``face_types``, ``find_gluing_map``, ``connected_sum`` and
``gluing_condition`` in ``trizig.shredding``.  A span is named after the
layer whose code it times, so a layer's self time is the sum over its spans.
"""

import contextlib
import math

from trizig import cli, document, monodromy, shredding, surgery, zigzag

from spans import self_times

ROOT = "bench.pass"
SEARCH_TAGS = ("M3", "M4", "M6", "M7")

# Layers whose self times partition a traced pass.  Shredding is split into
# the shred loop and the certificate replay.
SELF_METRICS = {
    "document.self_s": ("document.",),
    "core.self_s": ("core.",),
    "zigzag.self_s": ("zigzag.",),
    "monodromy.self_s": ("monodromy.",),
    "surgery.self_s": ("surgery.",),
    "shredding.self_s": ("shredding.shred", "shredding.find_gluing_map"),
    "shredding.replay_self_s": ("shredding.verify_certificate",),
    "cli.self_s": ("cli.",),
    "bench.self_s": ("bench.",),
}


def _faces(tri):
    return {"faces": len(tri.faces)}


def _atlas(atlas):
    return {"orbits": atlas.count,
            "positions": sum(zz.length for zz in atlas.zigzags)}


def _types(types):
    tags = [mtype.tag for mtype in types.values()]
    return {"faces": len(tags),
            "search": sum(tag in SEARCH_TAGS for tag in tags),
            "bad": sum(tag in shredding.BAD_TAGS for tag in tags)}


def _shred(result):
    return {"steps": len(result[1].steps)}


# (owner, attribute, span name, observer) for every wrapped call site.
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "parse", "document.parse", None),
    (cli, "serialize", "document.serialize", None),
    (cli, "shred", "shredding.shred", _shred),
    (document, "parse", "document.parse", None),
    (document, "serialize", "document.serialize", None),
    (document, "Triangulation", "core.build", _faces),
    (surgery, "Triangulation", "core.build", _faces),
    (zigzag, "is_z_knotted", "zigzag.is_z_knotted", None),
    (zigzag, "all_zigzags", "zigzag.all_zigzags", _atlas),
    (monodromy, "z_monodromy", "monodromy.z_monodromy", None),
    (monodromy, "face_types", "monodromy.face_types", _types),
    (shredding, "shred", "shredding.shred", _shred),
    (shredding, "verify_certificate", "shredding.verify_certificate", None),
    (shredding, "face_types", "monodromy.face_types", _types),
    (shredding, "find_gluing_map", "shredding.find_gluing_map", None),
    (shredding, "connected_sum", "surgery.connected_sum", None),
    (shredding, "gluing_condition", "surgery.gluing_condition", None),
    (shredding, "serialize", "document.serialize", None),
    (shredding, "is_z_knotted", "zigzag.is_z_knotted", None),
    (shredding, "all_zigzags", "zigzag.all_zigzags", _atlas),
    (shredding.ShredCertificate, "to_json", "document.serialize", None),
    (shredding.ShredCertificate, "from_json", "document.parse", None),
)


@contextlib.contextmanager
def traced(recorder):
    """Install the layer wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attribute, name, observe in TARGETS:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    recorder.wrap(name, original.__func__, observe))
            else:
                wrapped = recorder.wrap(name, original, observe)
            setattr(owner, attribute, wrapped)
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (its root span and descendants)."""
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}

    def named(name):
        return [span for span in spans if span.name == name]

    def total(group):
        return sum((span.duration for span in group), 0.0)

    def under_shred(span):
        return (span.parent is not None
                and by_id[span.parent].name == "shredding.shred")

    classify = named("monodromy.face_types")
    sums = named("surgery.connected_sum")
    tries = named("surgery.gluing_condition")
    atlases = named("zigzag.all_zigzags")
    faces_classified = sum(span.attrs["faces"] for span in classify)

    steps = bad_initial = reclassified = 0
    step_ms = []
    for shred in named("shredding.shred"):
        calls = [span for span in classify if span.parent == shred.id]
        count = shred.attrs["steps"]
        steps += count
        bad_initial += calls[0].attrs["bad"]
        reclassified += sum(span.attrs["faces"] for span in calls[1:])
        ends = [span.end for span in calls]
        step_ms += [(b - a) * 1e3 for a, b in zip(ends[:count], ends[1:count + 1])]

    metrics = {
        "document.parse_s": sum((selfs[span.id] for span in named("document.parse")), 0.0),
        "document.serialize_s": total(named("document.serialize")),
        "core.build_s": total(named("core.build")),
        "core.faces_built": sum(span.attrs["faces"] for span in named("core.build")),
        "zigzag.tables_s": total(named("zigzag.is_z_knotted")),
        "zigzag.atlas_s": total(atlases),
        "zigzag.positions": sum(span.attrs["positions"] for span in atlases),
        "zigzag.orbits": sum(span.attrs["orbits"] for span in atlases),
        "monodromy.maps_s": total(named("monodromy.z_monodromy")),
        "monodromy.classify_s": total(s for s in classify if not under_shred(s)),
        "monodromy.faces_classified": faces_classified,
        "monodromy.search_share": (
            sum(span.attrs["search"] for span in classify) / faces_classified
            if faces_classified else 0.0),
        "surgery.connected_sum_s": total(sums),
        "surgery.connected_sum_calls": len(sums),
        "surgery.gluing_tries": len(tries),
        "shredding.face_types_s": total(s for s in classify if under_shred(s)),
        "shredding.find_map_s": total(named("shredding.find_gluing_map")),
        "shredding.steps": steps,
        "shredding.bad_faces_initial": bad_initial,
        "shredding.reclassified_per_step": reclassified / steps if steps else 0.0,
        "shredding.map_hit_ratio": steps / len(tries) if tries else 0.0,
        "shredding.step_ms.p50": percentile(step_ms, 0.50),
        "shredding.step_ms.p90": percentile(step_ms, 0.90),
    }
    for metric, prefixes in SELF_METRICS.items():
        metrics[metric] = sum((selfs[span.id] for span in spans
                               if span.name.startswith(prefixes)), 0.0)
    return metrics
