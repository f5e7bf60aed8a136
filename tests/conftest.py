import pytest

from setcoh.datagen import GenConfig, build_splits


@pytest.fixture(scope="session")
def small_qa_corpus():
    return build_splits(GenConfig(style="qa", train_count=30, eval_count=12), rng_seed=5)


@pytest.fixture(scope="session")
def small_snli_corpus():
    return build_splits(GenConfig(style="snli", train_count=40, eval_count=16), rng_seed=5)


# The acceptance corpora (desk scale, seed 11), shared by every module that checks them.
@pytest.fixture(scope="session")
def qa_corpus():
    return build_splits(GenConfig(style="qa", train_count=2000, eval_count=200), rng_seed=11)


@pytest.fixture(scope="session")
def snli_corpus():
    return build_splits(GenConfig(style="snli", train_count=2000, eval_count=200), rng_seed=11)
