#include <scicos/scicos_block4.h>
#include <string.h>
#include <stdio.h>
#include <stdlib.h>
#include <stdint.h>
#include <math.h>
typedef int boolean;
#ifndef TRUE
#define TRUE 1
#define FALSE 0
#endif
/* Start1004*/

static int32_t z_10041=0;
static int32_t z_10042=0;
static int32_t link10046=0;
static int32_t link10048=0;

void initialize1004(){
  static int32_t tmp_7=0;
  static int32_t tmp_8=0;
  static int32_t tmp_9=0;
  static int32_t tmp_10=0;
  z_10041=tmp_7;
  z_10042=tmp_8;
  link10046=tmp_9;
  link10048=tmp_10;
}

void updateOutput10041(){
  /* Selct block starts*/
  /* Selct block ends*/
  link10046=0;
}

void updateOutput10042(int32_t *inouts2){
  /* Selct block starts*/
  /* Selct block ends*/
  link10046=*inouts2;
}

void updateOutput10043(int32_t *inouts1,int32_t *inouts2,int32_t *inouts3){
  int32_t tmp_1;
  int tmp_2;
  int32_t tmp_3;
  int32_t tmp_4;
  int tmp_5;
  int32_t tmp_6;
  tmp_1=z_10041;
  /* RELATIONALOP block starts*/
  tmp_2=(*inouts1!=tmp_1);
  tmp_3=((int32_t)(tmp_2));
  /* RELATIONALOP block ends*/
  *inouts3=tmp_3;
  tmp_4=z_10042;
  *inouts2=tmp_4;
  tmp_5=(*inouts3>0);
  if (tmp_5) {
    updateOutput10041();
  } else {
    updateOutput10042(inouts2);
  }
  /* Sum block begins with 2 inputs.*/
  tmp_6=((int32_t)((uint32_t)link10046+(uint32_t)1));
  link10048=tmp_6;
}

void updateState10043(int32_t *inouts1,int32_t *inouts2,int32_t *inouts3){
  z_10041=*inouts1;
  z_10042=link10048;
}

/* End1004*/

void toto1004(scicos_block *block,int flag)
{
if (flag == 1) {
  updateOutput10043((Getint32InPortPtrs(block,1)),(Getint32OutPortPtrs(block,1)),(Getint32OutPortPtrs(block,2)));
}
else if (flag == 2) {
  updateState10043((Getint32InPortPtrs(block,1)),(Getint32OutPortPtrs(block,1)),(Getint32OutPortPtrs(block,2)));
}
else if (flag == 4) {
  initialize1004();
}
}
