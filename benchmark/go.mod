module mtbase/benchmark

go 1.24

require mtbase v0.0.0

replace mtbase => ../
