module correctables/benchmark

go 1.24

require correctables v0.0.0

replace correctables => ../
