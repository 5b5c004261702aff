import safl_sim


def test_every_public_name_resolves_once():
    # a name left in __all__ after its definition moved breaks only
    # ``from safl_sim import *``, which nothing else here runs
    assert len(set(safl_sim.__all__)) == len(safl_sim.__all__)
    assert [name for name in safl_sim.__all__ if not hasattr(safl_sim, name)] == []
