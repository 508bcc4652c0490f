module dbtoaster/benchmark

go 1.24

require dbtoaster v0.0.0

replace dbtoaster => ../
