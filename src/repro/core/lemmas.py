"""A name stub left by the removed conflict-driven lemma learning."""


# Name stub: nothing calls it.  It stays only because perfbench/tracer.py
# wraps it by name (``patch(lemmas.LemmaStore, "blocks", "lemmas.blocks",
# flag=bool)``) until the benchmark change of ROADMAP item 1a drops that line.
class LemmaStore:
    def blocks(self, descriptors) -> bool:
        return False
