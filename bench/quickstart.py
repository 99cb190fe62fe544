"""The README's Python quick-start path at n = 6 rounds.

Builds the 6-fold BB84 power game and the 6-fold product of the optimal
unentangled strategy, evaluates it exactly, and prints ``{"value": ...}``.
The benchmark's ``power`` workload runs this file in a fresh interpreter.
"""

import json

ROUNDS = 6


def main() -> None:
    # imported here, so that wrappers installed before the call are the
    # functions this path uses
    from monogamy import bb84_game, game_power, product_strategy, winning_probability
    from monogamy.seesaw import bb84_optimal_unentangled_strategy

    game = game_power(bb84_game(), ROUNDS)
    strategy = product_strategy(bb84_optimal_unentangled_strategy(), ROUNDS)
    print(json.dumps({"value": winning_probability(game, strategy)}))


if __name__ == "__main__":
    main()
