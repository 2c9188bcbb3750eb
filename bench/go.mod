module hydra/bench

go 1.22

require hydra v0.0.0

replace hydra => ../
