module minvn/bench

go 1.22

require minvn v0.0.0

replace minvn => ../
