module mtask/benchmark

go 1.22

require mtask v0.0.0

replace mtask => ../
