module ashs/cmd/perfbench

go 1.22

require ashs v0.0.0

replace ashs => ../..
