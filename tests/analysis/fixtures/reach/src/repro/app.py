"""A program for the reach census fixture: one def per class."""

import multiprocessing


def used():
    return 1


def forked_only():
    return 2


def tested_only():
    return 3


def dead():
    return 4


def _child():
    forked_only()


def main():
    used()
    child = multiprocessing.get_context("fork").Process(target=_child)
    child.start()
    child.join()


if __name__ == "__main__":
    main()
